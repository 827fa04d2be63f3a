"""Expression grammar for the forcing polynomials V, plus their normal form.

Grammar (informal)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' int)?            # int may be negative
    atom   := number | 'i' | 'eps' | 'E' | ident | '(' expr ')'
            | 'cos(' int '*'? 't)' | 'sin(' int '*'? 't)'

`E` denotes e^{it} and may carry negative integer powers.  `cos(k*t)` and
`sin(k*t)` are sugar and desugar at parse time to (E^k+E^-k)/2 and
(E^k-E^-k)/(2*i).  Identifiers are state symbols (y1..yn for systems; y with
apostrophes, y', y'', ... for scalar equations), parameter names, or -- when
an expression is expanded against a PolyContext -- any context symbol.

Division is accepted by the parser but must resolve to division by a nonzero
constant; dividing by a state symbol (or eps, or a parameter) is rejected
when the expression is expanded, which keeps V polynomial.

`expand` is the one expander: it turns an AST into a `HarmonicSeries`, so V
lives in the same ring as the secular tables.  A forcing V_j(eps, E, y) is
expanded over its own context, whose amplitude slots hold the states and
whose order bounds V's eps-degree (`ast_to_vpoly`); an expression over a
table's symbols is the harmonic-0 entry (`ast_to_poly`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .gaussrat import GaussianRational, ONE, ZERO, I
from .poly import (
    PolyContext, MultiPoly, HarmonicSeries, hs_pow, join_signed, monomial_text, MAX_EXP,
    _exp_error,
)


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ExprSemanticError(ValueError):
    pass


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Rat:
    value: Fraction


@dataclass(frozen=True)
class ImagUnit:
    pass


@dataclass(frozen=True)
class EpsSym:
    pass


@dataclass(frozen=True)
class Carrier:
    """The harmonic carrier E = e^{it}."""


@dataclass(frozen=True)
class Name:
    name: str


@dataclass(frozen=True)
class Add:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Sub:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Mul:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Div:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: object


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*'*)|([-+*/^()]))")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == m.start():
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        num, ident, op = m.groups()
        at = m.start(1) if num else (m.start(2) if ident else m.start(3))
        if num:
            tokens.append(("num", int(num), at))
        elif ident:
            tokens.append(("ident", ident, at))
        else:
            tokens.append(("op", op, at))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self):
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("trailing input", pos)
        return node

    def expr(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            node = Neg(self.term())
        else:
            node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def factor(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            node = Pow(node, self.signed_int())
        return node

    def signed_int(self):
        kind, val, pos = self.next()
        neg = False
        if kind == "op" and val == "-":
            neg = True
            kind, val, pos = self.next()
        if kind != "num":
            raise ExprSyntaxError("expected integer exponent", pos)
        return -val if neg else val

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return Rat(Fraction(val))
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if val == "i":
                return ImagUnit()
            if val == "eps":
                return EpsSym()
            if val == "E":
                return Carrier()
            if val in ("cos", "sin"):
                return self.trig(val, pos)
            return Name(val)
        raise ExprSyntaxError("expected atom", pos)

    def trig(self, fn, pos):
        self.expect_op("(")
        kind, val, at = self.peek()
        k = 1
        if kind == "num":
            self.next()
            k = val
            kind, val, at = self.peek()
            if kind == "op" and val == "*":
                self.next()
        kind, val, at = self.next()
        if kind != "ident" or val != "t":
            raise ExprSyntaxError(f"{fn}(...) requires the time variable t", at)
        self.expect_op(")")
        ek = Carrier() if k == 1 else Pow(Carrier(), k)
        emk = Pow(Carrier(), -k)
        if fn == "cos":
            return Div(Add(ek, emk), Rat(Fraction(2)))
        return Div(Sub(ek, emk), Mul(Rat(Fraction(2)), ImagUnit()))


def parse_expression(src: str):
    """Parse an expression into its AST.

    The parser recurses once per parenthesis level; nesting deeper than the
    interpreter's recursion limit allows is a syntax error.
    """
    parser = _Parser(src)
    try:
        return parser.parse()
    except RecursionError:
        pos = parser.tokens[min(parser.k, len(parser.tokens) - 1)][2]
        raise ExprSyntaxError("parentheses nested too deeply", pos) from None


def _chain(node, kinds):
    """A left-deep chain x0 op1 x1 ... opn xn of `kinds` nodes, without recursion.

    Returns (x0, [(op1, x1), ..., (opn, xn)]); x0 is not one of `kinds`.
    A flat sum or product parses into such a chain, one node per operator.
    """
    rest = []
    while type(node) in kinds:
        rest.append((type(node), node.rhs))
        node = node.lhs
    rest.reverse()
    return node, rest


# --------------------------------------------------------------------------
# Rendering (round-trips through parse_expression)
# --------------------------------------------------------------------------

_LVL_ADD, _LVL_MUL, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4


def _level(node) -> int:
    if isinstance(node, (Add, Sub, Neg)):
        return _LVL_ADD
    if isinstance(node, (Mul, Div)):
        return _LVL_MUL
    if isinstance(node, Pow):
        return _LVL_POW
    return _LVL_ATOM


def render_expression(node) -> str:
    def wrap(child, minlvl):
        s = render_expression(child)
        return f"({s})" if _level(child) < minlvl else s

    if isinstance(node, Rat):
        return str(node.value)
    if isinstance(node, ImagUnit):
        return "i"
    if isinstance(node, EpsSym):
        return "eps"
    if isinstance(node, Carrier):
        return "E"
    if isinstance(node, Name):
        return node.name
    if isinstance(node, Neg):
        return "-" + wrap(node.operand, _LVL_MUL)
    if isinstance(node, (Add, Sub)):
        first, rest = _chain(node, (Add, Sub))
        return "".join([wrap(first, _LVL_ADD)] + [
            f" {'+' if op is Add else '-'} {wrap(x, _LVL_ADD + 1)}" for op, x in rest])
    if isinstance(node, (Mul, Div)):
        first, rest = _chain(node, (Mul, Div))
        return "".join([wrap(first, _LVL_MUL)] + [
            f"{'*' if op is Mul else '/'}{wrap(x, _LVL_MUL + 1)}" for op, x in rest])
    if isinstance(node, Pow):
        return f"{wrap(node.base, _LVL_ATOM)}^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")


# --------------------------------------------------------------------------
# Expansion into the polynomial ring of `poly`
# --------------------------------------------------------------------------

def constant_value(hs: HarmonicSeries):
    """The coefficient if `hs` is a constant (zero included), else None."""
    if not hs.entries:
        return ZERO
    c = _carrier_monomial(hs)
    return c[0] if c is not None and c[1] == 0 else None


def _carrier_monomial(hs: HarmonicSeries):
    """(c, l) if `hs` is c*E^l with no eps, state or parameter, else None."""
    if len(hs.entries) != 1:
        return None
    (l, p), = hs.entries.items()
    if len(p.packed) != 1:
        return None
    (e, c), = p.packed.items()
    return None if e else (c, l)


def expand(node, ctx: PolyContext, names, carrier: bool) -> HarmonicSeries:
    """Expand an AST into sum_l P_l E^l, the P_l polynomials over `ctx`.

    Identifiers must be among `names` (context symbols); `E` is allowed only
    when `carrier` is set.  Negative powers are allowed only on nonzero
    E-monomials and division only by nonzero constants, so the result stays
    polynomial.  Products are eps-truncated at the context order.
    """
    def reciprocal(n):
        denom = constant_value(go(n))
        if denom is None:
            raise ExprSemanticError("division only by constants (V must stay polynomial)")
        if denom.is_zero():
            raise ExprSemanticError("division by zero")
        return ONE / denom

    def go(n) -> HarmonicSeries:
        kind = type(n)
        if kind is Rat:
            return HarmonicSeries.single(0, ctx.const(GaussianRational(n.value)))
        if kind is ImagUnit:
            return HarmonicSeries.single(0, ctx.const(I))
        if kind is EpsSym:
            return HarmonicSeries.single(0, ctx.var("eps"))
        if kind is Carrier:
            if not carrier:
                raise ExprSemanticError("E has no meaning in a plain polynomial context")
            return HarmonicSeries.single(1, ctx.one())
        if kind is Name:
            if n.name not in names:
                raise ExprSemanticError(f"unknown symbol {n.name!r}")
            return HarmonicSeries.single(0, ctx.var(n.name))
        if kind is Neg:
            return -go(n.operand)
        if kind is Add or kind is Sub:
            first, rest = _chain(n, (Add, Sub))
            acc = go(first)
            for op, x in rest:
                acc = acc + go(x) if op is Add else acc - go(x)
            return acc
        if kind is Mul or kind is Div:
            first, rest = _chain(n, (Mul, Div))
            # in the order of a recursion over lhs: the divisors from the
            # right end inwards, then x0, then the factors left to right
            inverses = {k: reciprocal(x) for k, (op, x) in reversed(list(enumerate(rest)))
                        if op is Div}
            acc = go(first)
            for k, (op, x) in enumerate(rest):
                if op is Mul:
                    acc = acc * go(x)
                else:
                    acc = acc.map_entries(lambda p, inv=inverses[k]: p.scale(inv))
            return acc
        if kind is Pow:
            base = go(n.base)
            if n.exponent >= 0:
                # an eps-free non-constant term of the base is raised to the
                # exponent itself: name it here, not a power on the way to it
                free = 1 << ctx.eps_shift  # the keys below it carry no eps
                keys = (k for p in base.entries.values() for k in p.packed)
                if n.exponent > MAX_EXP and any(0 < k < free for k in keys):
                    raise _exp_error(n.exponent)
                return hs_pow(base, n.exponent)
            mono = _carrier_monomial(base)
            if mono is None:
                raise ExprSemanticError(
                    "negative powers are only allowed for nonzero E-monomials"
                )
            c, l = mono
            return hs_pow(HarmonicSeries.single(-l, ctx.const(ONE / c)), -n.exponent)
        raise TypeError(f"not an expression node: {n!r}")

    return go(node)


def _eps_bound(node) -> int:
    """An upper bound on the eps-degree of the expanded node."""
    kind = type(node)
    if kind is EpsSym:
        return 1
    if kind is Add or kind is Sub:
        first, rest = _chain(node, (Add, Sub))
        return max([_eps_bound(first)] + [_eps_bound(x) for _, x in rest])
    if kind is Mul or kind is Div:
        first, rest = _chain(node, (Mul, Div))
        return _eps_bound(first) + sum(_eps_bound(x) for _, x in rest)
    if kind is Pow:
        return node.exponent * _eps_bound(node.base) if node.exponent > 0 else 0
    if kind is Neg:
        return _eps_bound(node.operand)
    return 0


def ast_to_vpoly(node, state_names, param_names) -> HarmonicSeries:
    """Expand a forcing expression over its own context, never truncating.

    The forcing context is PolyContext(state_names, param_names, d) with d an
    upper bound on the expression's eps-degree, so the states sit in the
    amplitude slots and every term survives.
    """
    ctx = PolyContext(state_names, param_names, _eps_bound(node))
    return expand(node, ctx, ctx.amplitudes + ctx.params, True)


def ast_to_poly(node, ctx: PolyContext) -> MultiPoly:
    """Expand an AST whose identifiers are PolyContext symbols (no E allowed)."""
    return expand(node, ctx, ctx.symbols, False).get(0)


def render_forcing(vp: HarmonicSeries) -> str:
    """Deterministic expression string of a forcing series; reparses to it.

    Terms are sorted by (eps power, E power, state exponents, parameter
    exponents); the state and parameter names are those of the context.
    """
    ctx = vp.ctx
    names = ("eps", "E") + ctx.amplitudes + ctx.params
    terms = []
    for l, p in vp.entries.items():
        for e, c in p.terms.items():
            k, _, _, se, pe = ctx.split(e)
            terms.append(((k, l, se, pe), c))
    parts = []
    for (k, l, se, pe), c in sorted(terms):
        factors = []
        if not c.im:
            q = c.re
        elif not c.re:
            factors.append("i")
            q = c.im
        else:
            factors.append(f"({c})")
            q = Fraction(1)
        mono = monomial_text(names, (k, l) + se + pe)
        if mono:
            factors.append(mono)
        if abs(q) != 1 or not factors:
            factors.insert(0, str(abs(q)))
        parts.append(("-" if q < 0 else "") + "*".join(factors))
    return join_signed(parts)
