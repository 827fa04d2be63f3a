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
compilation), not for the ring operations.  ``MultiPoly.mul`` works on the
integer triples of the coefficients: it keeps one unnormalised (a, b, d)
per output key, cross-multiplying denominators only where two differ, and
builds each canonical coefficient once at the end, so a product costs one
gcd per output term rather than two per kept term pair; a sum adds the
triples the same way, with one gcd per key the two maps share.  A
HarmonicSeries is a finite-support map from the harmonic index m to a
MultiPoly, representing sum_m P_m(eps,t,A) e^{imt}.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_
from types import MappingProxyType

from .gaussrat import GaussianRational, ONE, _canonical

EPS = 0
T = 1
S = 2

FIELD = 32  # bits per symbol in a packed key
MAX_EXP = (1 << (FIELD - 1)) - 1  # the largest exponent; the field's top bit is the guard
_MASK = (1 << FIELD) - 1


class PolyError(ValueError):
    pass


def _exp_error(k) -> PolyError:
    return PolyError(f"exponent {k} exceeds the limit {MAX_EXP}")


class PolyContext:
    """Shared symbol table, eps-truncation order and packed-key layout."""

    __slots__ = ("amplitudes", "params", "order", "symbols", "_index", "nvars",
                 "shifts", "eps_shift", "guard")

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
        """The exponent vector of a packed key."""
        return tuple(key >> sh & _MASK for sh in self.shifts)

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
            unpack = self.ctx.unpack
            view = self._view = MappingProxyType(
                {unpack(k): c for k, c in self.packed.items()})
        return view

    # -- basic queries --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.packed

    def degree(self, name: str) -> int:
        """Largest exponent of `name`; -1 for the zero polynomial."""
        sh = self.ctx.shifts[self.ctx.index(name)]
        return max((e >> sh & _MASK for e in self.packed), default=-1)

    def min_eps_order(self):
        """Smallest eps-exponent present, or None for the zero polynomial."""
        return min(self.packed) >> self.ctx.eps_shift if self.packed else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ctx.compatible(other.ctx) and self.packed == other.packed

    __hash__ = None

    # -- ring operations ------------------------------------------------------
    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        _check_ctx(self, other)
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
        return MultiPoly(self.ctx, {e: v * c for e, v in self.packed.items()})

    def mul(self, other: "MultiPoly", trunc: int | None = None) -> "MultiPoly":
        """Product, eps-truncated at `trunc` (defaults to the context order).

        Each term of `self` meets only the terms of `other` within the cut:
        per eps-order of `self`, those terms of `other` are listed once, in
        `other`'s order, so the kept pairs are visited in the order of the
        full double loop.  The pair loop works on the integer triples
        (a, b, d) of the coefficients and keeps one unnormalised triple per
        output key, cross-multiplying denominators only where they differ;
        each key is normalised once at the end.  A sum is zero exactly when
        a == b == 0, normalised or not, so a key that cancels is dropped, and
        re-inserted at the end if a later pair reaches it, as the
        coefficient-by-coefficient loop does.
        """
        _check_ctx(self, other)
        ctx = self.ctx
        cut = ctx.order if trunc is None else min(trunc, ctx.order)
        sh = ctx.eps_shift
        packed = self.packed
        if len(packed) == 1:
            # one term: the keys of the product are distinct, nothing accumulates
            (e1, c1), = packed.items()
            lim = (cut - (e1 >> sh) + 1) << sh
            if c1.is_one():
                out = {e1 + e2: c2 for e2, c2 in other.packed.items() if e2 < lim}
            else:
                a1, b1, d1 = c1.a, c1.b, c1.d
                out = {e1 + e2: _canonical(a1 * c2.a - b1 * c2.b, a1 * c2.b + b1 * c2.a,
                                           d1 * c2.d)
                       for e2, c2 in other.packed.items() if e2 < lim}
            ctx._check_keys(out)
            return MultiPoly(ctx, out)
        inner = [(e2, c2.a, c2.b, c2.d) for e2, c2 in other.packed.items()]
        rows = {}  # eps-room -> the terms of `other` of eps-order <= room
        acc = {}  # key -> unnormalised (a, b, d)
        get = acc.get
        for e1, c1 in packed.items():
            room = cut - (e1 >> sh)
            if room < 0:
                continue
            row = rows.get(room)
            if row is None:
                lim = (room + 1) << sh
                row = rows[room] = [t for t in inner if t[0] < lim]
            a1, b1, d1 = c1.a, c1.b, c1.d
            for e2, a2, b2, d2 in row:
                key = e1 + e2
                a = a1 * a2 - b1 * b2
                b = a1 * b2 + b1 * a2
                d = d1 * d2
                old = get(key)
                if old is None:
                    acc[key] = (a, b, d)
                    continue
                a0, b0, d0 = old
                if d0 == d:
                    a += a0
                    b += b0
                else:
                    a = a * d0 + a0 * d
                    b = b * d0 + b0 * d
                    d *= d0
                if a or b:
                    acc[key] = (a, b, d)
                else:
                    del acc[key]
        ctx._check_keys(acc)
        return MultiPoly(ctx, {k: _canonical(a, b, d) for k, (a, b, d) in acc.items()})

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
            if k:
                out[e - one] = c.scale(k)
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

    # -- numeric evaluation ----------------------------------------------------
    def eval_complex(self, values: dict) -> complex:
        """Evaluate at a numeric point; every symbol actually present must be bound."""
        ctx = self.ctx
        bound = [None] * ctx.nvars
        for name, v in values.items():
            bound[ctx.index(name)] = complex(v)
        total = 0j
        for e, c in self.terms.items():
            v = complex(c)
            for i, k in enumerate(e):
                if k:
                    if bound[i] is None:
                        raise PolyError(f"unbound symbol {ctx.symbols[i]!r}")
                    v *= bound[i] ** k
            total += v
        return total

    # -- rendering ---------------------------------------------------------------
    def _sort_key(self, e):
        return (e[EPS], sum(e[1:]), e)

    def render(self) -> str:
        """Canonical text form: deterministic term order, `i` unit, `^` powers."""
        terms = self.terms
        if not terms:
            return "0"
        names = self.ctx.symbols
        parts = []
        for e in sorted(terms, key=self._sort_key):
            c = terms[e]
            mono = "*".join(
                (names[i] if k == 1 else f"{names[i]}^{k}")
                for i, k in enumerate(e)
                if k
            )
            cs = str(c)
            if mono:
                if c.is_one():
                    txt = mono
                elif c == GaussianRational(-1):
                    txt = f"-{mono}"
                else:
                    txt = f"{cs}*{mono}"
            else:
                txt = cs
            parts.append(txt)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __str__ = render

    def __repr__(self):
        return f"<MultiPoly {self.render()}>"


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

    P = sum_{k>=0} (-1)^k c^(-k-1) d^k(rhs)/dt^k; the sum is finite because
    rhs is polynomial in t at every eps-order.
    """
    if c.is_zero():
        raise PolyError("resolve_shift requires a nonzero shift")
    inv = ONE / c
    out = rhs.ctx.zero()
    factor = inv
    cur = rhs
    while not cur.is_zero():
        out = out + cur.scale(factor)
        cur = cur.diff_t()
        factor = -(factor * inv)
    return out


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
        """Convolution over harmonic indices, eps-truncated."""
        _check_ctx(self, other)
        out = {}
        for m1, p1 in self.entries.items():
            for m2, p2 in other.entries.items():
                p = p1.mul(p2, trunc)
                if p.is_zero():
                    continue
                m = m1 + m2
                q = out.get(m)
                out[m] = p if q is None else q + p
        return HarmonicSeries(self.ctx, out)

    __mul__ = mul

    def time_derivative(self) -> "HarmonicSeries":
        """d/dt of sum_m P_m e^{imt}: entry m becomes P_m' + i m P_m."""
        out = {}
        for m, p in self.entries.items():
            q = p.diff_t()
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
