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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .gaussrat import GaussianRational, ONE, I
from .poly import PolyContext, MultiPoly


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
        self.src = src
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
    """Parse an expression into its AST."""
    return _Parser(src).parse()


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
    if isinstance(node, Add):
        return f"{wrap(node.lhs, _LVL_ADD)} + {wrap(node.rhs, _LVL_ADD + 1)}"
    if isinstance(node, Sub):
        return f"{wrap(node.lhs, _LVL_ADD)} - {wrap(node.rhs, _LVL_ADD + 1)}"
    if isinstance(node, Mul):
        return f"{wrap(node.lhs, _LVL_MUL)}*{wrap(node.rhs, _LVL_MUL + 1)}"
    if isinstance(node, Div):
        return f"{wrap(node.lhs, _LVL_MUL)}/{wrap(node.rhs, _LVL_MUL + 1)}"
    if isinstance(node, Pow):
        return f"{wrap(node.base, _LVL_ATOM)}^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")


# --------------------------------------------------------------------------
# Expanded normal form: polynomial in (eps, E, states, params)
# --------------------------------------------------------------------------

class VPoly:
    """Sparse expansion of a forcing expression.

    Term keys are (eps_power, E_power, state_exponents, param_exponents) with
    E_power ranging over all integers (Laurent in the carrier).
    """

    __slots__ = ("nstates", "nparams", "terms")

    def __init__(self, nstates: int, nparams: int, terms: dict | None = None):
        self.nstates = nstates
        self.nparams = nparams
        self.terms = terms or {}

    @classmethod
    def const(cls, nstates, nparams, c: GaussianRational) -> "VPoly":
        if c.is_zero():
            return cls(nstates, nparams, {})
        key = (0, 0, (0,) * nstates, (0,) * nparams)
        return cls(nstates, nparams, {key: c})

    def _like(self, terms):
        return VPoly(self.nstates, self.nparams, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_autonomous(self) -> bool:
        return all(l == 0 for (_, l, _, _) in self.terms)

    def constant_value(self):
        """The coefficient if this is a pure constant, else None."""
        if not self.terms:
            from .gaussrat import ZERO
            return ZERO
        if len(self.terms) != 1:
            return None
        (k, l, se, pe), c = next(iter(self.terms.items()))
        if k or l or any(se) or any(pe):
            return None
        return c

    def carrier_monomial(self):
        """(c, l) if this is c*E^l with no eps/state/param content, else None."""
        if len(self.terms) != 1:
            return None
        (k, l, se, pe), c = next(iter(self.terms.items()))
        if k or any(se) or any(pe):
            return None
        return (c, l)

    def __add__(self, other: "VPoly") -> "VPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                acc = acc + c
                if acc.is_zero():
                    del out[e]
                else:
                    out[e] = acc
        return self._like(out)

    def __neg__(self) -> "VPoly":
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "VPoly") -> "VPoly":
        return self + (-other)

    def __mul__(self, other: "VPoly") -> "VPoly":
        out = {}
        for (k1, l1, s1, p1), c1 in self.terms.items():
            for (k2, l2, s2, p2), c2 in other.terms.items():
                key = (
                    k1 + k2,
                    l1 + l2,
                    tuple(map(int.__add__, s1, s2)),
                    tuple(map(int.__add__, p1, p2)),
                )
                c = c1 * c2
                acc = out.get(key)
                if acc is None:
                    out[key] = c
                else:
                    acc = acc + c
                    if acc.is_zero():
                        del out[key]
                    else:
                        out[key] = acc
        return self._like(out)

    def scale(self, c: GaussianRational) -> "VPoly":
        if c.is_zero():
            return self._like({})
        return self._like({e: v * c for e, v in self.terms.items()})

    def pow(self, n: int) -> "VPoly":
        if n < 0:
            mono = self.carrier_monomial()
            if mono is None or mono[0].is_zero():
                raise ExprSemanticError(
                    "negative powers are only allowed for nonzero E-monomials"
                )
            c, l = mono
            inv = ONE / c
            out = VPoly.const(self.nstates, self.nparams, ONE)
            for _ in range(-n):
                out = out * self._like({(0, -l, (0,) * self.nstates, (0,) * self.nparams): inv})
            return out
        result = VPoly.const(self.nstates, self.nparams, ONE)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute_states(self, images: list["VPoly"]) -> "VPoly":
        """Replace state j by images[j] (a VPoly over the *new* state set)."""
        if not images:
            raise ExprSemanticError("no substitution images")
        proto = images[0]
        out = VPoly.const(proto.nstates, proto.nparams, GaussianRational(0))
        for (k, l, se, pe), c in self.terms.items():
            term = VPoly(
                proto.nstates,
                proto.nparams,
                {(k, l, (0,) * proto.nstates, pe): c},
            )
            for j, e in enumerate(se):
                for _ in range(e):
                    term = term * images[j]
            out = out + term
        return out

    def render(self, state_names, param_names) -> str:
        """Deterministic expression string; reparses to the same VPoly."""
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda e: (e[0], e[1], e[2], e[3])):
            k, l, se, pe = key
            c = self.terms[key]
            factors = []
            if not c.im:
                q = c.re
            elif not c.re:
                factors.append("i")
                q = c.im
            else:
                factors.append(f"({c})")
                q = Fraction(1)
            if k:
                factors.append("eps" if k == 1 else f"eps^{k}")
            if l:
                factors.append("E" if l == 1 else f"E^{l}")
            for name, e in zip(state_names, se):
                if e:
                    factors.append(name if e == 1 else f"{name}^{e}")
            for name, e in zip(param_names, pe):
                if e:
                    factors.append(name if e == 1 else f"{name}^{e}")
            neg = q < 0
            q = abs(q)
            if q != 1 or not factors:
                factors.insert(0, str(q))
            txt = "*".join(factors)
            parts.append(("-" if neg else "") + txt)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __eq__(self, other):
        if not isinstance(other, VPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"<VPoly {len(self.terms)} terms>"


def ast_to_vpoly(node, state_names, param_names) -> VPoly:
    """Expand an AST over the given state/parameter symbol lists."""
    ns, np_ = len(state_names), len(param_names)
    sidx = {name: j for j, name in enumerate(state_names)}
    pidx = {name: j for j, name in enumerate(param_names)}

    def const(c):
        return VPoly.const(ns, np_, c)

    def go(n) -> VPoly:
        if isinstance(n, Rat):
            return const(GaussianRational(n.value))
        if isinstance(n, ImagUnit):
            return const(I)
        if isinstance(n, EpsSym):
            return VPoly(ns, np_, {(1, 0, (0,) * ns, (0,) * np_): ONE})
        if isinstance(n, Carrier):
            return VPoly(ns, np_, {(0, 1, (0,) * ns, (0,) * np_): ONE})
        if isinstance(n, Name):
            if n.name in sidx:
                se = [0] * ns
                se[sidx[n.name]] = 1
                return VPoly(ns, np_, {(0, 0, tuple(se), (0,) * np_): ONE})
            if n.name in pidx:
                pe = [0] * np_
                pe[pidx[n.name]] = 1
                return VPoly(ns, np_, {(0, 0, (0,) * ns, tuple(pe)): ONE})
            raise ExprSemanticError(f"unknown symbol {n.name!r}")
        if isinstance(n, Neg):
            return -go(n.operand)
        if isinstance(n, Add):
            return go(n.lhs) + go(n.rhs)
        if isinstance(n, Sub):
            return go(n.lhs) - go(n.rhs)
        if isinstance(n, Mul):
            return go(n.lhs) * go(n.rhs)
        if isinstance(n, Div):
            denom = go(n.rhs).constant_value()
            if denom is None:
                raise ExprSemanticError("division only by constants (V must stay polynomial)")
            if denom.is_zero():
                raise ExprSemanticError("division by zero")
            return go(n.lhs).scale(ONE / denom)
        if isinstance(n, Pow):
            return go(n.base).pow(n.exponent)
        raise TypeError(f"not an expression node: {n!r}")

    return go(node)


def ast_to_poly(node, ctx: PolyContext) -> MultiPoly:
    """Expand an AST whose identifiers are PolyContext symbols (no E allowed)."""

    def go(n) -> MultiPoly:
        if isinstance(n, Rat):
            return ctx.const(GaussianRational(n.value))
        if isinstance(n, ImagUnit):
            return ctx.const(I)
        if isinstance(n, EpsSym):
            return ctx.var("eps")
        if isinstance(n, Carrier):
            raise ExprSemanticError("E has no meaning in a plain polynomial context")
        if isinstance(n, Name):
            return ctx.var(n.name)
        if isinstance(n, Neg):
            return -go(n.operand)
        if isinstance(n, Add):
            return go(n.lhs) + go(n.rhs)
        if isinstance(n, Sub):
            return go(n.lhs) - go(n.rhs)
        if isinstance(n, Mul):
            return go(n.lhs) * go(n.rhs)
        if isinstance(n, Div):
            rhs = go(n.rhs)
            c = None
            if len(rhs.terms) == 1:
                (e, v), = rhs.terms.items()
                if not any(e):
                    c = v
            elif rhs.is_zero():
                raise ExprSemanticError("division by zero")
            if c is None:
                raise ExprSemanticError("division only by constants")
            return go(n.lhs).scale(ONE / c)
        if isinstance(n, Pow):
            if n.exponent < 0:
                raise ExprSemanticError("negative powers not allowed here")
            return go(n.base) ** n.exponent
        raise TypeError(f"not an expression node: {n!r}")

    return go(node)
