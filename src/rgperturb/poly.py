"""Sparse multivariate polynomials over Q(i), truncated in the small parameter.

A PolyContext fixes the symbol table -- ``eps`` (the perturbation parameter),
``t`` (fast time), ``s`` (the shift variable used by the functional-relation
machinery), then the amplitude symbols, then any equation parameters -- along
with the truncation order K.  Every monomial with an eps-exponent above K is
identically zero; truncation is applied eagerly at every multiplication so a
MultiPoly is always an element of the quotient ring mod eps^(K+1).

A monomial's exponent vector is packed into one int, a FIELD-bit field per
symbol, with eps in the most significant field and then t, s, the amplitudes
and the parameters in symbol order (Monagan and Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  Int
order is then lexicographic order of the exponent tuples, the key of a
product is the sum of the keys, and the eps-order of a key is
``key >> ctx.eps_shift``.  The top bit of every field is a guard bit: an
exponent above MAX_EXP raises PolyError wherever a key is built or grows
(``var``, ``monomial``, ``pack``, every product, ``antidiff_t``,
``rename``), so a key never wraps into the neighbouring field.  FIELD is
the same for every context, so contexts with as many symbols share one
layout.

MultiPoly terms are stored as a sparse map {packed key: GaussianRational};
no zero coefficients are kept, so equality of the term maps is structural
equality of the polynomials.  ``MultiPoly.terms`` is a read-only view of
the same map keyed by exponent tuples, in the same order, built on first
use; it is for readers at the boundary (rendering, serialization, numeric
compilation), not for the ring operations.  A key is decoded in C: its
big-endian bytes are one uint32 per field (``PolyContext.unpack``).
`Evaluator` gives the floating-point values of a list of polynomials at
numeric points, each term read once for every point.  A HarmonicSeries is a
finite-support map from the harmonic index m to a MultiPoly, representing
sum_m P_m(eps,t,A) e^{imt}.

Products go through one sum-of-products kernel (`_Accumulator`,
`sum_of_products`).  It works on the integer triples (a, b, d) of the
coefficients: every term pair of every product of a sum is added into one
unnormalised triple per output key (per output harmonic, for series), two
unequal denominators are combined over their lcm, and each key is
normalised once at the end, so a sum of products costs one gcd per output
term.  ``MultiPoly.mul`` and ``HarmonicSeries.mul`` are the sums of one
product; a `SeriesSum` also takes series times constants and time
derivatives along a flow into the same sum.  `resolve_shift` and
`resolve_chain` accumulate their closed forms the same way, and
`lie_derivative` (L p = sum_k F_k dp/dA_k) builds each derivative term
inside the kernel's loop, as does `lie_series`.  The
insertion order of a result's map is whatever the kernel leaves; nothing
that reads a map for output depends on it (``sorted_terms`` and
``support`` give the canonical orders).

This module is the only one that knows the monomial format.  Outside it,
an exponent tuple is read through ``PolyContext.split`` (its eps, t and s
exponents, then the amplitude and the parameter exponents), terms are
listed in the canonical order by ``MultiPoly.sorted_terms``, and term text
is written by ``monomial_text`` (``name^k`` factors) and ``join_signed``
(the `` + ``/`` - `` sum).

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import or_
from struct import Struct
from types import MappingProxyType

from .gaussrat import GaussianRational, ONE, _canonical, _raw

EPS = 0
T = 1
S = 2

FIELD = 32  # bits per symbol in a packed key
MAX_EXP = (1 << (FIELD - 1)) - 1  # the largest exponent; the field's top bit is the guard
_MASK = (1 << FIELD) - 1
_MINUS_ONE = GaussianRational(-1)


class PolyError(ValueError):
    pass


def _exp_error(k) -> PolyError:
    return PolyError(f"exponent {k} exceeds the limit {MAX_EXP}")


class PolyContext:
    """Shared symbol table, eps-truncation order and packed-key layout."""

    __slots__ = ("amplitudes", "params", "order", "symbols", "_index", "nvars",
                 "shifts", "eps_shift", "guard", "_fields", "_width")

    def __init__(self, amplitudes, params=(), order=0):
        amplitudes = tuple(amplitudes)
        params = tuple(params)
        if order < 0:
            raise PolyError("truncation order must be >= 0")
        if order > MAX_EXP:
            raise _exp_error(order)
        symbols = ("eps", "t", "s") + amplitudes + params
        if len(set(symbols)) != len(symbols):
            raise PolyError("symbol names must be unique")
        self.amplitudes = amplitudes
        self.params = params
        self.order = order
        self.symbols = symbols
        self.nvars = len(symbols)
        self._index = {name: k for k, name in enumerate(symbols)}
        # shifts[i]: the low bit of symbol i's field; eps is the top field
        self.shifts = tuple(FIELD * (self.nvars - 1 - i) for i in range(self.nvars))
        self.eps_shift = self.shifts[EPS]
        self.guard = sum(1 << (sh + FIELD - 1) for sh in self.shifts)
        # FIELD is 32, so each field of a key's big-endian bytes is one uint32
        self._fields = Struct(f">{self.nvars}I").unpack
        self._width = 4 * self.nvars

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PolyError(f"unknown symbol {name!r}") from None

    def compatible(self, other: "PolyContext") -> bool:
        return self is other or (
            self.symbols == other.symbols and self.order == other.order
        )

    # -- packed keys -----------------------------------------------------------
    def pack(self, exps) -> int:
        """The packed key of an exponent vector."""
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise PolyError("exponent vector has wrong length")
        key = 0
        for k in exps:
            if k < 0:
                raise PolyError("negative powers are not representable")
            if k > MAX_EXP:
                raise _exp_error(k)
            key = key << FIELD | k
        return key

    def unpack(self, key: int) -> tuple:
        """The exponent vector of a packed key, decoded in C."""
        return self._fields(key.to_bytes(self._width, "big"))

    def split(self, e) -> tuple:
        """(eps, t, s, amplitude exponents, parameter exponents) of an exponent tuple."""
        cut = 3 + len(self.amplitudes)
        return e[EPS], e[T], e[S], e[3:cut], e[cut:]

    def _check_keys(self, keys) -> None:
        """Raise PolyError if any key has a guard bit set (an exponent past MAX_EXP)."""
        if reduce(or_, keys, 0) & self.guard:
            raise _exp_error(max(max(self.unpack(k)) for k in keys if k & self.guard))

    # -- constructors --------------------------------------------------------
    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self.const(ONE)

    def const(self, c) -> "MultiPoly":
        if isinstance(c, (int, Fraction)):
            c = GaussianRational(c)
        if c.is_zero():
            return MultiPoly(self, {})
        return MultiPoly(self, {0: c})

    def var(self, name: str, power: int = 1) -> "MultiPoly":
        i = self.index(name)
        if power < 0:
            raise PolyError("negative powers are not representable")
        if i == EPS and power > self.order:
            return self.zero()
        if power > MAX_EXP:
            raise _exp_error(power)
        return MultiPoly(self, {power << self.shifts[i]: ONE})

    def monomial(self, c: GaussianRational, exps) -> "MultiPoly":
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise PolyError("exponent vector has wrong length")
        if c.is_zero() or exps[EPS] > self.order:
            return self.zero()
        return MultiPoly(self, {self.pack(exps): c})

    def from_terms(self, terms: dict) -> "MultiPoly":
        """The polynomial of a {exponent tuple: coefficient} map, in its order."""
        return MultiPoly(self, {self.pack(e): c for e, c in terms.items()})

    def __repr__(self):
        return f"PolyContext(amplitudes={self.amplitudes}, params={self.params}, order={self.order})"


def monomial_text(names, exps) -> str:
    """The `name^k` factors of the nonzero exponents joined by `*`; "" for none."""
    return "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, exps) if k)


def join_signed(parts) -> str:
    """Signed term texts as a sum: a term "-x" joins as " - x"; "0" for none."""
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}"
                              for p in parts[1:])


def _canonical_order(item):
    e = item[0]
    return e[EPS], sum(e[1:]), e


def _check_ctx(a, b):
    if not a.ctx.compatible(b.ctx):
        raise PolyError("context mismatch")


def _add_terms(out: dict, terms: dict) -> None:
    """Add a term map into `out` in place, dropping cancelled terms.

    Each sum is built from the integer triples, as `mul` does: zero exactly
    when a == b == 0, otherwise normalised once.
    """
    get = out.get
    for e, c in terms.items():
        old = get(e)
        if old is None:
            out[e] = c
            continue
        d0, d = old.d, c.d
        if d0 == d:
            a, b = old.a + c.a, old.b + c.b
        else:
            a, b, d = old.a * d + c.a * d0, old.b * d + c.b * d0, d0 * d
        if a or b:
            out[e] = _canonical(a, b, d)
        else:
            del out[e]


def _add_triple(acc: dict, key: int, a: int, b: int, d: int) -> None:
    """Add (a + b*i)/d into the unnormalised triple of `key`, over the lcm of the denominators."""
    old = acc.get(key)
    if old is None:
        acc[key] = (a, b, d)
        return
    a0, b0, d0 = old
    if d0 == d:
        acc[key] = (a + a0, b + b0, d)
        return
    g = gcd(d0, d)
    f0, f = d // g, d0 // g
    acc[key] = (a * f + a0 * f0, b * f + b0 * f0, d * f)


class _Accumulator:
    """The sum-of-products kernel: term pairs added unnormalised, each key normalised once.

    One accumulator serves one sum of products mod eps^(cut+1).  Each
    output map holds one unnormalised triple (a, b, d) per key, meaning
    (a + b*i)/d; a term pair adds its product into it, and two unequal
    denominators are combined over their lcm, not their product, so the
    denominators stay those of the terms.  `poly` normalises each key once
    with `_canonical`, dropping the keys whose sum is zero (exactly a == b
    == 0, normalised or not).  The kept terms of a right-hand factor of
    eps-room r (those of eps-order <= r) are listed once per factor and
    room, so a factor that appears in many products is read once.
    """

    __slots__ = ("ctx", "cut", "_rows")

    def __init__(self, ctx: PolyContext, cut: int):
        self.ctx = ctx
        self.cut = cut
        self._rows = {}  # id of a right factor -> (factor, {eps-room: [(key, a, b, d)]})

    def add_product(self, acc: dict, left: dict, right: "MultiPoly") -> None:
        """Add every kept term pair of left * right into `acc`."""
        sh = self.ctx.eps_shift
        cut = self.cut
        held = self._rows.get(id(right))
        if held is None:
            # the factor is held with its rows, so its id stays its own
            held = self._rows[id(right)] = (right, {})
        rows = held[1]
        get = acc.get
        for e1, c1 in left.items():
            room = cut - (e1 >> sh)
            if room < 0:
                continue
            row = rows.get(room)
            if row is None:
                lim = (room + 1) << sh
                row = rows[room] = [(e2, c2.a, c2.b, c2.d)
                                    for e2, c2 in right.packed.items() if e2 < lim]
            a1, b1, d1 = c1.a, c1.b, c1.d
            for e2, a2, b2, d2 in row:
                key = e1 + e2
                a = a1 * a2 - b1 * b2
                b = a1 * b2 + b1 * a2
                d = d1 * d2
                old = get(key)  # _add_triple, inlined: this is the engine's hottest loop
                if old is None:
                    acc[key] = (a, b, d)
                    continue
                a0, b0, d0 = old
                if d0 == d:
                    acc[key] = (a + a0, b + b0, d)
                else:
                    g = gcd(d0, d)
                    f0, f = d // g, d0 // g
                    acc[key] = (a * f + a0 * f0, b * f + b0 * f0, d * f)

    def poly(self, acc: dict) -> "MultiPoly":
        """The accumulated map as a polynomial, each key normalised once."""
        out = {k: _canonical(a, b, d) for k, (a, b, d) in acc.items() if a or b}
        self.ctx._check_keys(out)
        return MultiPoly(self.ctx, out)


class MultiPoly:
    """Element of Q(i)[t, s, A..., params...][[eps]] / eps^(K+1)."""

    __slots__ = ("ctx", "packed", "_view")

    def __init__(self, ctx: PolyContext, packed: dict):
        self.ctx = ctx
        self.packed = packed
        self._view = None

    @property
    def terms(self):
        """Read-only {exponent tuple: coefficient} view, in the packed map's order."""
        view = self._view
        if view is None:
            fields, width = self.ctx._fields, self.ctx._width
            view = self._view = MappingProxyType(
                {fields(k.to_bytes(width, "big")): c for k, c in self.packed.items()})
        return view

    # -- basic queries --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.packed

    def degree(self, name: str) -> int:
        """Largest exponent of `name`; -1 for the zero polynomial."""
        sh = self.ctx.shifts[self.ctx.index(name)]
        return max((e >> sh & _MASK for e in self.packed), default=-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ctx.compatible(other.ctx) and self.packed == other.packed

    __hash__ = None

    # -- ring operations ------------------------------------------------------
    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        _check_ctx(self, other)
        # values are immutable: a zero summand gives the other one back
        if not other.packed:
            return self
        if not self.packed and other.ctx is self.ctx:
            return other
        out = dict(self.packed)
        _add_terms(out, other.packed)
        return MultiPoly(self.ctx, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.ctx, {e: -c for e, c in self.packed.items()})

    def scale(self, c) -> "MultiPoly":
        if isinstance(c, (int, Fraction)):
            c = GaussianRational(c)
        if c.is_zero():
            return self.ctx.zero()
        if c.is_one():
            return self
        return MultiPoly(self.ctx, {e: v * c for e, v in self.packed.items()})

    def mul(self, other: "MultiPoly", trunc: int | None = None) -> "MultiPoly":
        """Product, eps-truncated at `trunc` (defaults to the context order).

        A one-term `self` shifts the keys of `other`: nothing accumulates.
        Any other product goes through the sum-of-products kernel
        (`_Accumulator`), which normalises each output key once.
        """
        _check_ctx(self, other)
        ctx = self.ctx
        cut = ctx.order if trunc is None else min(trunc, ctx.order)
        packed = self.packed
        if len(packed) == 1:
            (e1, c1), = packed.items()
            lim = (cut - (e1 >> ctx.eps_shift) + 1) << ctx.eps_shift
            if c1.is_one():
                out = {e1 + e2: c2 for e2, c2 in other.packed.items() if e2 < lim}
            else:
                a1, b1, d1 = c1.a, c1.b, c1.d
                out = {e1 + e2: _canonical(a1 * c2.a - b1 * c2.b, a1 * c2.b + b1 * c2.a,
                                           d1 * c2.d)
                       for e2, c2 in other.packed.items() if e2 < lim}
            ctx._check_keys(out)
            return MultiPoly(ctx, out)
        return poly_sum_of_products(ctx, [(self, other)], cut)

    __mul__ = mul

    def pow(self, n: int) -> "MultiPoly":
        if n < 0:
            raise PolyError("negative polynomial power")
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return result

    __pow__ = pow

    # -- calculus in t --------------------------------------------------------
    def diff(self, name: str) -> "MultiPoly":
        sh = self.ctx.shifts[self.ctx.index(name)]
        one = 1 << sh
        out = {}
        for e, c in self.packed.items():
            k = e >> sh & _MASK
            if k == 1:
                out[e - one] = c
            elif k:
                out[e - one] = _canonical(c.a * k, c.b * k, c.d)
        return MultiPoly(self.ctx, out)

    def diff_t(self) -> "MultiPoly":
        return self.diff("t")

    def antidiff_t(self) -> "MultiPoly":
        """Unique antiderivative in t with zero constant term."""
        sh = self.ctx.shifts[T]
        one = 1 << sh
        out = {}
        for e, c in self.packed.items():
            k = e >> sh & _MASK
            if k == MAX_EXP:
                raise _exp_error(k + 1)
            out[e + one] = c.scale(Fraction(1, k + 1))
        return MultiPoly(self.ctx, out)

    # -- coefficient extraction ----------------------------------------------
    def coeff_power(self, name: str, k: int) -> "MultiPoly":
        """Coefficient of name^k (the symbol is removed from the result)."""
        sh = self.ctx.shifts[self.ctx.index(name)]
        field = _MASK << sh
        want = k << sh
        return MultiPoly(
            self.ctx, {e - want: c for e, c in self.packed.items() if e & field == want})

    def eps_coeff(self, k: int) -> "MultiPoly":
        return self.coeff_power("eps", k)

    def trunc(self, k: int) -> "MultiPoly":
        """Drop all terms of eps-order above k."""
        lim = (k + 1) << self.ctx.eps_shift
        return MultiPoly(self.ctx, {e: c for e, c in self.packed.items() if e < lim})

    def rehome(self, ctx: PolyContext) -> "MultiPoly":
        """The same exponent vectors read in `ctx`, dropping eps-orders above its order.

        `ctx` must have as many symbols; slot k keeps its exponent whatever
        the two contexts call it.
        """
        if ctx.nvars != self.ctx.nvars:
            raise PolyError("rehome needs a context with as many symbols")
        lim = (ctx.order + 1) << ctx.eps_shift
        return MultiPoly(ctx, {e: c for e, c in self.packed.items() if e < lim})

    def set_zero(self, name: str) -> "MultiPoly":
        """Substitute name -> 0."""
        field = _MASK << self.ctx.shifts[self.ctx.index(name)]
        return MultiPoly(self.ctx, {e: c for e, c in self.packed.items() if not e & field})

    def negate_symbol(self, name: str) -> "MultiPoly":
        """Substitute name -> -name."""
        odd = 1 << self.ctx.shifts[self.ctx.index(name)]
        return MultiPoly(self.ctx, {e: (-c if e & odd else c) for e, c in self.packed.items()})

    def conj_coeffs(self) -> "MultiPoly":
        """Conjugate every coefficient (the formal i -> -i map)."""
        return MultiPoly(self.ctx, {e: c.conj() for e, c in self.packed.items()})

    def rename(self, mapping: dict) -> "MultiPoly":
        """Permute symbols by name (images must be context symbols)."""
        ctx = self.ctx
        shifts = ctx.shifts
        moves = [(shifts[ctx.index(a)], shifts[ctx.index(b)]) for a, b in mapping.items()]
        keep = ~sum(_MASK << si for si, _ in moves)
        guard = ctx.guard
        out = {}
        for e, c in self.packed.items():
            key = e & keep
            for si, sj in moves:
                key += (e >> si & _MASK) << sj
                if key & guard:  # checked per move, before a carry could reach the next field
                    raise _exp_error(max(ctx.unpack(key)))
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
        return MultiPoly(ctx, {e: c for e, c in out.items() if not c.is_zero()})

    # -- substitution ----------------------------------------------------------
    def substitute(self, bindings: dict) -> "MultiPoly":
        """Simultaneous substitution name -> MultiPoly, expanded and truncated."""
        return Substitution(self.ctx, bindings)(self)

    # -- rendering ---------------------------------------------------------------
    def sorted_terms(self) -> list:
        """(exponent tuple, coefficient) pairs in the canonical order.

        The order is by eps-order, then total degree in the other symbols,
        then the exponent tuples themselves.
        """
        return sorted(self.terms.items(), key=_canonical_order)

    def render(self) -> str:
        """Canonical text form: deterministic term order, `i` unit, `^` powers."""
        names = self.ctx.symbols
        parts = []
        for e, c in self.sorted_terms():
            mono = monomial_text(names, e)
            if not mono:
                parts.append(str(c))
            elif c.is_one():
                parts.append(mono)
            elif c == _MINUS_ONE:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return join_signed(parts)

    __str__ = render

    def __repr__(self):
        return f"<MultiPoly {self.render()}>"


class Evaluator:
    """Floating-point values of a list of polynomials of one context at numeric points.

    Built once per list: each term is read once, in packed-key order (the
    lexicographic order of the exponent tuples), into its complex
    coefficient and the slots of its nonzero exponents in symbol order, one
    slot per distinct (symbol, exponent) pair of the list; the fields below
    eps are decoded once per distinct value.  At a point each slot gets one
    power; a term's value is its coefficient times its slots' powers in
    turn, and a polynomial's value is the sum of its terms' values in turn
    from 0j.  Every symbol a term has must be bound at the point.
    """

    __slots__ = ("ctx", "_pairs", "_polys")

    def __init__(self, ctx: PolyContext, polys):
        slot = {}  # (symbol index, exponent) -> slot, in order of first use
        below = {}  # the fields of a key below eps -> their slots
        fields, width, sh = ctx._fields, ctx._width, ctx.eps_shift
        low = (1 << sh) - 1
        self._polys = []
        for p in polys:
            if not ctx.compatible(p.ctx):
                raise PolyError("context mismatch")
            terms = []
            for key, c in sorted(p.packed.items()):
                a, rest = key >> sh, key & low
                head = (slot.setdefault((EPS, a), len(slot)),) if a else ()
                tail = below.get(rest)
                if tail is None:
                    tail = below[rest] = tuple(
                        slot.setdefault(ik, len(slot))
                        for ik in enumerate(fields(rest.to_bytes(width, "big"))) if ik[1])
                terms.append((complex(c), head + tail))
            self._polys.append(terms)
        self.ctx = ctx
        self._pairs = list(slot)

    def __call__(self, values: dict) -> list:
        """The value of each polynomial at the point {symbol name: number}."""
        ctx = self.ctx
        bound = [None] * ctx.nvars
        for name, v in values.items():
            bound[ctx.index(name)] = complex(v)
        try:
            powers = [bound[i] ** k for i, k in self._pairs]
        except TypeError:  # None ** k: the first unbound symbol a term uses
            i = next(i for i, _ in self._pairs if bound[i] is None)
            raise PolyError(f"unbound symbol {ctx.symbols[i]!r}") from None
        out = []
        for terms in self._polys:
            total = 0j
            for v, slots in terms:
                for i in slots:
                    v *= powers[i]
                total += v
            out.append(total)
        return out


class Substitution:
    """Simultaneous substitution name -> MultiPoly, reusable across polynomials.

    Calling it on P groups P's terms by the exponents of the bound symbols
    (the group's key: the bound fields of the packed key).  A group with an
    all-zero key is kept as it is; any other group's unbound remainder R, of
    lowest eps-order e, is multiplied once by image(key, K - e), the product
    of the bound images raised to the key's exponents mod eps^(K-e+1).
    Truncation mod eps^(cut+1) is a ring homomorphism and every term of R
    carries at least eps^e, so the result is the full substitution mod
    eps^(K+1).  Images are cached per (key, cut) on the object: one
    Substitution applied to every entry of a table builds each image once.
    """

    __slots__ = ("ctx", "_mask", "_images", "_cache")

    def __init__(self, ctx: PolyContext, bindings: dict):
        images = {}
        for name, img in bindings.items():
            i = ctx.index(name)
            if i == EPS:
                raise PolyError("eps cannot be substituted")
            if not ctx.compatible(img.ctx):
                raise PolyError("context mismatch")
            images[ctx.shifts[i]] = img
        self.ctx = ctx
        self._mask = sum(_MASK << sh for sh in images)  # the bound fields
        self._images = images  # field shift -> image
        self._cache = {}

    def image(self, key: int, cut: int) -> MultiPoly:
        """Product of the images raised to the key's exponents mod eps^(cut+1), key != 0."""
        cache = self._cache
        p = cache.get((key, cut))
        if p is not None:
            return p
        # peel one factor of the lowest bound symbol (the most significant
        # nonzero field) at a time off the key, down to a cached image or a
        # single factor, then multiply back up caching every step
        chain = []
        while p is None:
            sh = (key.bit_length() - 1) // FIELD * FIELD
            chain.append((key, sh))
            key -= 1 << sh
            if not key:
                break
            p = cache.get((key, cut))
        for key, sh in reversed(chain):
            img = self._images[sh]
            p = img.trunc(cut) if p is None else p.mul(img, cut)
            cache[key, cut] = p
        return p

    def __call__(self, poly: MultiPoly) -> MultiPoly:
        ctx = poly.ctx
        if not ctx.compatible(self.ctx):
            raise PolyError("context mismatch")
        mask = self._mask
        if not mask:
            return poly
        out = {}
        groups = {}
        for e, c in poly.packed.items():
            key = e & mask
            if not key:
                out[e] = c
                continue
            groups.setdefault(key, {})[e - key] = c
        sh = ctx.eps_shift
        for key, rest in groups.items():
            cut = ctx.order - (min(rest) >> sh)
            _add_terms(out, MultiPoly(ctx, rest).mul(self.image(key, cut)).packed)
        return MultiPoly(ctx, out)


def resolve_shift(c: GaussianRational, rhs: MultiPoly) -> MultiPoly:
    """Unique polynomial-in-t solution P of  dP/dt + c P = rhs  (c != 0).

    P = sum_{k>=0} (-1)^k c^(-k-1) d^k(rhs)/dt^k, written term by term: a
    term C t^n of rhs adds C w(n, k) t^(n-k) for k = 0..n, with the weights
    w(n, k) = (-1)^k c^(-k-1) n!/(n-k)! built once per t-degree n.  The
    terms are accumulated unnormalised, as in `_Accumulator`, and each key
    is normalised once.
    """
    if c.is_zero():
        raise PolyError("resolve_shift requires a nonzero shift")
    inv = ONE / c
    ctx = rhs.ctx
    sh = ctx.shifts[T]
    one = 1 << sh
    weights = {}  # t-degree n -> [(a, b, d) of w(n, k) for k = 0..n]
    acc = {}
    for e, c1 in rhs.packed.items():
        n = e >> sh & _MASK
        ws = weights.get(n)
        if ws is None:
            ws, w = [], inv
            for k in range(n + 1):
                ws.append((w.a, w.b, w.d))
                w = -(w * inv).scale(n - k)
            weights[n] = ws
        a1, b1, d1 = c1.a, c1.b, c1.d
        for wa, wb, wd in ws:
            _add_triple(acc, e, a1 * wa - b1 * wb, a1 * wb + b1 * wa, d1 * wd)
            e -= one
    return MultiPoly(ctx, {k: _canonical(a, b, d) for k, (a, b, d) in acc.items() if a or b})


def resolve_chain(c: GaussianRational, rhs: MultiPoly, links=()) -> MultiPoly:
    """Unique polynomial P with  L0 P + c P = rhs  (c != 0).

    L0 = sum A_b d/dA_a over the (a, b) symbol-name links; the links must
    form chains, so that L0 is nilpotent on polynomials.  Then
    P = sum_{s>=0} (-1)^s c^(-s-1) L0^s rhs: each L0^s rhs is kept as
    unnormalised triples, its weighted terms are added into one accumulator
    as in `_Accumulator`, and each key is normalised once.
    """
    if c.is_zero():
        raise PolyError("resolve_chain requires a nonzero shift")
    if not links:
        return rhs.scale(ONE / c)
    ctx = rhs.ctx
    moves = [(ctx.shifts[ctx.index(a)], ctx.shifts[ctx.index(b)]) for a, b in links]
    inv = ONE / c
    w = inv
    layer = {e: (v.a, v.b, v.d) for e, v in rhs.packed.items()}  # L0^s rhs
    acc = {}
    while layer:
        wa, wb, wd = w.a, w.b, w.d
        nxt = {}
        for e, (a, b, d) in layer.items():
            _add_triple(acc, e, a * wa - b * wb, a * wb + b * wa, d * wd)
            for sa, sb in moves:
                k = e >> sa & _MASK
                if k:
                    _add_triple(nxt, e - (1 << sa) + (1 << sb), a * k, b * k, d)
        layer = {e: v for e, v in nxt.items() if v[0] or v[1]}
        w = -(w * inv)
    out = {k: _canonical(a, b, d) for k, (a, b, d) in acc.items() if a or b}
    ctx._check_keys(out)
    return MultiPoly(ctx, out)


def from_expression(ctx: PolyContext, src: str) -> MultiPoly:
    """Parse an expression whose identifiers are context symbols.

    Convenience for tests and golden tables: `E` and state symbols are not
    allowed here, only eps/t/s, amplitudes and parameters.
    """
    from .expressions import parse_expression, ast_to_poly

    return ast_to_poly(parse_expression(src), ctx)


class HarmonicSeries:
    """Finite-support map m -> MultiPoly, representing sum_m P_m e^{imt}."""

    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: PolyContext, entries: dict):
        self.ctx = ctx
        self.entries = {m: p for m, p in entries.items() if p.packed}

    @classmethod
    def zero(cls, ctx: PolyContext) -> "HarmonicSeries":
        return cls(ctx, {})

    @classmethod
    def single(cls, m: int, p: MultiPoly) -> "HarmonicSeries":
        return cls(p.ctx, {m: p})

    def support(self):
        return sorted(self.entries)

    def get(self, m: int) -> MultiPoly:
        return self.entries.get(m, self.ctx.zero())

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, HarmonicSeries):
            return NotImplemented
        return self.ctx.compatible(other.ctx) and self.entries == other.entries

    __hash__ = None

    def __add__(self, other: "HarmonicSeries") -> "HarmonicSeries":
        _check_ctx(self, other)
        out = dict(self.entries)
        for m, p in other.entries.items():
            q = out.get(m)
            out[m] = p if q is None else q + p
        return HarmonicSeries(self.ctx, out)

    def __sub__(self, other: "HarmonicSeries") -> "HarmonicSeries":
        return self + (-other)

    def __neg__(self) -> "HarmonicSeries":
        return HarmonicSeries(self.ctx, {m: -p for m, p in self.entries.items()})

    def mul(self, other: "HarmonicSeries", trunc: int | None = None) -> "HarmonicSeries":
        """Convolution over harmonic indices, eps-truncated: `sum_of_products`
        of the one pair."""
        return sum_of_products(self.ctx, [(self, other)], trunc)

    __mul__ = mul

    def time_derivative(self, diff_t=None) -> "HarmonicSeries":
        """d/dt of sum_m P_m e^{imt}: entry m becomes P_m' + i m P_m.

        `diff_t`, when given, maps each harmonic m to P_m', already taken.
        """
        out = {}
        for m, p in self.entries.items():
            q = p.diff_t() if diff_t is None else diff_t[m]
            if m:
                q = q + p.scale(GaussianRational(0, m))
            if not q.is_zero():
                out[m] = q
        return HarmonicSeries(self.ctx, out)

    def map_entries(self, fn) -> "HarmonicSeries":
        return HarmonicSeries(self.ctx, {m: fn(p) for m, p in self.entries.items()})

    def eps_coeff(self, k: int) -> "HarmonicSeries":
        return self.map_entries(lambda p: p.eps_coeff(k))

    def render(self) -> str:
        if not self.entries:
            return "(empty)"
        return "\n".join(f"[{m}] {self.entries[m].render()}" for m in self.support())

    def __repr__(self):
        return f"<HarmonicSeries {{{', '.join(map(str, self.support()))}}}>"


def poly_sum_of_products(ctx: PolyContext, pairs, trunc: int | None = None) -> MultiPoly:
    """sum of x * y over the (x, y) pairs of MultiPolys, eps-truncated at `trunc`,
    through one accumulator (see `sum_of_products`)."""
    acc = _Accumulator(ctx, ctx.order if trunc is None else min(trunc, ctx.order))
    out = {}
    for x, y in pairs:
        _check_ctx(x, y)
        acc.add_product(out, x.packed, y)
    return acc.poly(out)


def sum_of_products(ctx: PolyContext, pairs, trunc: int | None = None) -> HarmonicSeries:
    """sum of x * y over the (x, y) pairs of HarmonicSeries, eps-truncated at `trunc`.

    Every term pair of every product lands in one unnormalised accumulator
    per output harmonic m1 + m2, and each output key is normalised once at
    the end (`SeriesSum`): a sum of n products costs one normalisation
    per output term, not one per term of each of the n products and again
    per addition.  This is the sparse multiply-accumulate kernel of
    Monagan and Pearce, "Parallel sparse polynomial multiplication using
    heaps", ISSAC 2009, with a dict in place of the heap.
    """
    total = SeriesSum(ctx, trunc)
    for x, y in pairs:
        total.add_product(x, y)
    return total.series()


class SeriesSum:
    """One sum of harmonic series built in one accumulator (`_Accumulator`).

    Each summand -- a product of two series, a series times a constant, or
    the time derivative of a series along a flow -- adds its terms
    unnormalised into one triple per output harmonic and key, dropping
    eps-orders above the cut; `series` normalises each key once.
    """

    __slots__ = ("ctx", "cut", "_acc", "_out")

    def __init__(self, ctx: PolyContext, cut: int | None = None):
        self.ctx = ctx
        self.cut = ctx.order if cut is None else min(cut, ctx.order)
        self._acc = _Accumulator(ctx, self.cut)
        self._out = {}  # harmonic -> {key: unnormalised triple}

    def _check(self, hs: HarmonicSeries) -> None:
        if not self.ctx.compatible(hs.ctx):
            raise PolyError("context mismatch")

    def add_product(self, x: HarmonicSeries, y: HarmonicSeries) -> None:
        """Add x * y, harmonic m1 of x times harmonic m2 of y landing at m1 + m2."""
        self._check(x)
        self._check(y)
        add = self._acc.add_product
        out = self._out
        for m1, p1 in x.entries.items():
            for m2, p2 in y.entries.items():
                m = m1 + m2
                terms = out.get(m)
                if terms is None:
                    terms = out[m] = {}
                add(terms, p1.packed, p2)

    def add_scaled(self, x: HarmonicSeries, c: GaussianRational) -> None:
        """Add c * x."""
        if c.is_zero():
            return
        self._check(x)
        const = self.ctx.const(c)
        add = self._acc.add_product
        out = self._out
        for m, p in x.entries.items():
            add(out.setdefault(m, {}), p.packed, const)

    def add_time_derivative(self, x: HarmonicSeries, fields=(), shift: int = 0) -> None:
        """Add (d/dt - i*shift) x along the flow dA/dt = F(A).

        `fields` is F, aligned with the amplitudes; without it d/dt is
        plain.  Entry m of x adds dP/dt + i(m - shift) P + sum_k F_k dP/dA_k at
        harmonic m: the first two in one pass over P's terms, L P through
        the kernel (`_lie_terms`).
        """
        ctx = self.ctx
        tsh = ctx.shifts[T]
        tone = 1 << tsh
        lim = (self.cut + 1) << ctx.eps_shift
        self._check(x)
        moves = _lie_moves(ctx, fields)
        out = self._out
        for m, p in x.entries.items():
            terms = out.setdefault(m, {})
            w = m - shift
            for e, c in p.packed.items():
                if e >= lim:
                    continue
                a, b, d = c.a, c.b, c.d
                if w:
                    _add_triple(terms, e, -w * b, w * a, d)
                k = e >> tsh & _MASK
                if k:
                    _add_triple(terms, e - tone, a * k, b * k, d)
            _lie_terms(self._acc, terms, p, moves)

    def series(self) -> HarmonicSeries:
        """The sum, each key normalised once."""
        poly = self._acc.poly
        return HarmonicSeries(self.ctx, {m: poly(terms) for m, terms in self._out.items()})


def _lie_terms(acc: _Accumulator, terms: dict, p: MultiPoly, moves) -> dict:
    """Add the unnormalised terms of L p = sum_k F_k dp/dA_k into `terms`, through `acc`.

    `moves` holds (unit key, shift, F_k) per amplitude with F_k != 0.  Each
    derivative term is built on the fly, its coefficient times the
    exponent left unnormalised, and multiplied into the one accumulator.
    """
    for one, sh, f in moves:
        left = {}
        for e, c in p.packed.items():
            k = e >> sh & _MASK
            if k:
                left[e - one] = c if k == 1 else _raw(c.a * k, c.b * k, c.d)
        if left:
            acc.add_product(terms, left, f)
    return terms


def _lie_moves(ctx: PolyContext, fields) -> list:
    shifts = ctx.shifts[S + 1:S + 1 + len(ctx.amplitudes)]
    return [(1 << sh, sh, f) for sh, f in zip(shifts, fields) if f.packed]


def lie_derivative(p: MultiPoly, fields) -> MultiPoly:
    """L p = sum_k F_k dp/dA_k, with `fields` aligned with the amplitudes.

    It is d/dt of p(eps, A(t)) along the flow dA/dt = F(A); the products
    are summed in one accumulator.
    """
    return next(lie_derivatives(p.ctx, (p,), fields))


def lie_derivatives(ctx: PolyContext, polys, fields):
    """L p for each p of `polys`, lazily and in order (see `lie_derivative`).

    All of them share one accumulator and one list of moves, so each
    field's rows are listed once, not once per polynomial.
    """
    acc = _Accumulator(ctx, ctx.order)
    moves = _lie_moves(ctx, fields)
    for p in polys:
        yield acc.poly(_lie_terms(acc, {}, p, moves))


def lie_series(series, fields, sign: int = 1) -> list:
    """exp(sign*t*L) of each series: sum_n (sign*t)^n/n! L^n hs, L = sum_k F_k d/dA_k.

    The series must be t-free, and L acts entry by entry.  The n-th term is
    L of the one before, with the factor sign*t/n carried on the keys and
    coefficients of the fields, so it has t-degree exactly n and the terms
    add as disjoint maps.  A series' sum stops at its first L^n hs that is
    zero mod eps^(K+1), or where the eps-order of the fields' terms rules
    out any more; it is finite when the eps^0 part of F is zero or a chain
    shift, which is nilpotent on polynomials, as every other part raises
    the eps-order.  All series share one accumulator per n.
    """
    if not series:
        return []
    ctx = series[0].ctx
    tone = 1 << ctx.shifts[T]
    sh = ctx.eps_shift
    # L^n hs has eps-order >= n * low, so past K / low nothing is left
    low = min((e >> sh for f in fields for e in f.packed), default=ctx.order + 1)
    out = [{m: dict(p.packed) for m, p in hs.entries.items()} for hs in series]
    live = [(sums, hs.entries) for sums, hs in zip(out, series)]
    n = 0
    while live and (n + 1) * low <= ctx.order:
        n += 1
        w = GaussianRational(Fraction(sign, n))
        moves = _lie_moves(ctx, [MultiPoly(ctx, {e + tone: c * w for e, c in f.packed.items()})
                                 for f in fields])
        acc = _Accumulator(ctx, ctx.order)
        nxt = []
        for sums, entries in live:
            terms = {}
            for m, p in entries.items():
                q = acc.poly(_lie_terms(acc, {}, p, moves))
                if q.packed:
                    terms[m] = q
                    sums.setdefault(m, {}).update(q.packed)
            if terms:
                nxt.append((sums, terms))
        live = nxt
    return [HarmonicSeries(ctx, {m: MultiPoly(ctx, d) for m, d in sums.items()}) for sums in out]


def hs_pow(x: HarmonicSeries, n: int, trunc: int | None = None) -> HarmonicSeries:
    result = HarmonicSeries.single(0, x.ctx.one())
    base = x
    while n:
        if n & 1:
            result = result.mul(base, trunc)
        n >>= 1
        if n:
            base = base.mul(base, trunc)
    return result
