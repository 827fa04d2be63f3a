"""Sparse multivariate polynomials over Q(i), truncated in the small parameter.

A PolyContext fixes the symbol table -- ``eps`` (the perturbation parameter),
``t`` (fast time), ``s`` (the shift variable used by the functional-relation
machinery), then the amplitude symbols, then any equation parameters -- along
with the truncation order K.  Every monomial with an eps-exponent above K is
identically zero; truncation is applied eagerly at every multiplication so a
MultiPoly is always an element of the quotient ring mod eps^(K+1).

MultiPoly terms are stored as a sparse map {exponent tuple: GaussianRational};
no zero coefficients are kept, so equality of the term maps is structural
equality of the polynomials.  A HarmonicSeries is a finite-support map from
the harmonic index m to a MultiPoly, representing  sum_m P_m(eps,t,A) e^{imt}.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction

from .gaussrat import GaussianRational, ONE

EPS = 0
T = 1
S = 2


class PolyError(ValueError):
    pass


class PolyContext:
    """Shared symbol table and eps-truncation order."""

    __slots__ = ("amplitudes", "params", "order", "symbols", "_index", "nvars")

    def __init__(self, amplitudes, params=(), order=0):
        amplitudes = tuple(amplitudes)
        params = tuple(params)
        if order < 0:
            raise PolyError("truncation order must be >= 0")
        symbols = ("eps", "t", "s") + amplitudes + params
        if len(set(symbols)) != len(symbols):
            raise PolyError("symbol names must be unique")
        self.amplitudes = amplitudes
        self.params = params
        self.order = order
        self.symbols = symbols
        self.nvars = len(symbols)
        self._index = {name: k for k, name in enumerate(symbols)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PolyError(f"unknown symbol {name!r}") from None

    def compatible(self, other: "PolyContext") -> bool:
        return self is other or (
            self.symbols == other.symbols and self.order == other.order
        )

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
        return MultiPoly(self, {(0,) * self.nvars: c})

    def var(self, name: str, power: int = 1) -> "MultiPoly":
        i = self.index(name)
        if power < 0:
            raise PolyError("negative powers are not representable")
        if i == EPS and power > self.order:
            return self.zero()
        e = [0] * self.nvars
        e[i] = power
        return MultiPoly(self, {tuple(e): ONE})

    def monomial(self, c: GaussianRational, exps) -> "MultiPoly":
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise PolyError("exponent vector has wrong length")
        if c.is_zero() or exps[EPS] > self.order:
            return self.zero()
        return MultiPoly(self, {exps: c})

    def __repr__(self):
        return f"PolyContext(amplitudes={self.amplitudes}, params={self.params}, order={self.order})"


def _check_ctx(a, b):
    if not a.ctx.compatible(b.ctx):
        raise PolyError("context mismatch")


def _add_terms(out: dict, terms: dict) -> None:
    """Add a term map into `out` in place, dropping cancelled terms."""
    for e, c in terms.items():
        acc = out.get(e)
        if acc is None:
            out[e] = c
        else:
            acc = acc + c
            if acc.is_zero():
                del out[e]
            else:
                out[e] = acc


class MultiPoly:
    """Element of Q(i)[t, s, A..., params...][[eps]] / eps^(K+1)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: PolyContext, terms: dict):
        self.ctx = ctx
        self.terms = terms

    # -- basic queries --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, name: str) -> int:
        """Largest exponent of `name`; -1 for the zero polynomial."""
        i = self.ctx.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def min_eps_order(self):
        """Smallest eps-exponent present, or None for the zero polynomial."""
        return min((e[EPS] for e in self.terms), default=None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ctx.compatible(other.ctx) and self.terms == other.terms

    __hash__ = None

    # -- ring operations ------------------------------------------------------
    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        _check_ctx(self, other)
        out = dict(self.terms)
        _add_terms(out, other.terms)
        return MultiPoly(self.ctx, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.ctx, {e: -c for e, c in self.terms.items()})

    def scale(self, c) -> "MultiPoly":
        if isinstance(c, (int, Fraction)):
            c = GaussianRational(c)
        if c.is_zero():
            return self.ctx.zero()
        return MultiPoly(self.ctx, {e: v * c for e, v in self.terms.items()})

    def mul(self, other: "MultiPoly", trunc: int | None = None) -> "MultiPoly":
        """Product, eps-truncated at `trunc` (defaults to the context order)."""
        _check_ctx(self, other)
        cut = self.ctx.order if trunc is None else min(trunc, self.ctx.order)
        out = {}
        for e1, c1 in self.terms.items():
            k1 = e1[EPS]
            for e2, c2 in other.terms.items():
                if k1 + e2[EPS] > cut:
                    continue
                key = tuple(map(int.__add__, e1, e2))
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
        return MultiPoly(self.ctx, out)

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
        i = self.ctx.index(name)
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if not k:
                continue
            key = e[:i] + (k - 1,) + e[i + 1:]
            c2 = c.scale(k)
            acc = out.get(key)
            out[key] = c2 if acc is None else acc + c2
        return MultiPoly(self.ctx, {e: c for e, c in out.items() if not c.is_zero()})

    def diff_t(self) -> "MultiPoly":
        return self.diff("t")

    def antidiff_t(self) -> "MultiPoly":
        """Unique antiderivative in t with zero constant term."""
        out = {}
        for e, c in self.terms.items():
            k = e[T]
            out[e[:T] + (k + 1,) + e[T + 1:]] = c.scale(Fraction(1, k + 1))
        return MultiPoly(self.ctx, out)

    # -- coefficient extraction ----------------------------------------------
    def coeff_power(self, name: str, k: int) -> "MultiPoly":
        """Coefficient of name^k (the symbol is removed from the result)."""
        i = self.ctx.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                out[e[:i] + (0,) + e[i + 1:]] = c
        return MultiPoly(self.ctx, out)

    def eps_coeff(self, k: int) -> "MultiPoly":
        return self.coeff_power("eps", k)

    def trunc(self, k: int) -> "MultiPoly":
        """Drop all terms of eps-order above k."""
        return MultiPoly(self.ctx, {e: c for e, c in self.terms.items() if e[EPS] <= k})

    def rehome(self, ctx: PolyContext) -> "MultiPoly":
        """The same exponent vectors read in `ctx`, dropping eps-orders above its order.

        `ctx` must have as many symbols; slot k keeps its exponent whatever
        the two contexts call it.
        """
        if ctx.nvars != self.ctx.nvars:
            raise PolyError("rehome needs a context with as many symbols")
        return MultiPoly(ctx, {e: c for e, c in self.terms.items() if e[EPS] <= ctx.order})

    def set_zero(self, name: str) -> "MultiPoly":
        """Substitute name -> 0."""
        i = self.ctx.index(name)
        return MultiPoly(self.ctx, {e: c for e, c in self.terms.items() if not e[i]})

    def negate_symbol(self, name: str) -> "MultiPoly":
        """Substitute name -> -name."""
        i = self.ctx.index(name)
        return MultiPoly(
            self.ctx,
            {e: (c if e[i] % 2 == 0 else -c) for e, c in self.terms.items()},
        )

    def conj_coeffs(self) -> "MultiPoly":
        """Conjugate every coefficient (the formal i -> -i map)."""
        return MultiPoly(self.ctx, {e: c.conj() for e, c in self.terms.items()})

    def rename(self, mapping: dict) -> "MultiPoly":
        """Permute symbols by name (images must be context symbols)."""
        idx = {self.ctx.index(a): self.ctx.index(b) for a, b in mapping.items()}
        out = {}
        for e, c in self.terms.items():
            le = list(e)
            for i in idx:
                le[i] = 0
            for i, j in idx.items():
                le[j] += e[i]
            key = tuple(le)
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
        return MultiPoly(self.ctx, {e: c for e, c in out.items() if not c.is_zero()})

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
        if not self.terms:
            return "0"
        names = self.ctx.symbols
        parts = []
        for e in sorted(self.terms, key=self._sort_key):
            c = self.terms[e]
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
    (the group's key).  A group with an all-zero key is kept as it is; any
    other group's unbound remainder R, of lowest eps-order e, is multiplied
    once by image(key, K - e), the product of the bound images raised to the
    key's exponents mod eps^(K-e+1).  Truncation mod eps^(cut+1) is a ring
    homomorphism and every term of R carries at least eps^e, so the result is
    the full substitution mod eps^(K+1).  Images are cached per (key, cut) on
    the object: one Substitution applied to every entry of a table builds
    each image once.
    """

    __slots__ = ("ctx", "_index", "_images", "_cache")

    def __init__(self, ctx: PolyContext, bindings: dict):
        bound = []
        for name, img in bindings.items():
            i = ctx.index(name)
            if i == EPS:
                raise PolyError("eps cannot be substituted")
            if not ctx.compatible(img.ctx):
                raise PolyError("context mismatch")
            bound.append((i, img))
        bound.sort(key=lambda b: b[0])
        self.ctx = ctx
        self._index = tuple(i for i, _ in bound)
        self._images = tuple(img for _, img in bound)
        self._cache = {}

    def image(self, key: tuple, cut: int) -> MultiPoly:
        """Product of images[j]^key[j] mod eps^(cut+1), for a nonzero key."""
        cache = self._cache
        p = cache.get((key, cut))
        if p is not None:
            return p
        # peel one factor at a time off the key, down to a cached image or a
        # single factor, then multiply back up caching every step
        chain = []
        while p is None:
            j = min(k for k, n in enumerate(key) if n)
            chain.append((key, j))
            key = key[:j] + (key[j] - 1,) + key[j + 1:]
            if not any(key):
                break
            p = cache.get((key, cut))
        for key, j in reversed(chain):
            img = self._images[j]
            p = img.trunc(cut) if p is None else p.mul(img, cut)
            cache[key, cut] = p
        return p

    def __call__(self, poly: MultiPoly) -> MultiPoly:
        ctx = poly.ctx
        if not ctx.compatible(self.ctx):
            raise PolyError("context mismatch")
        index = self._index
        if not index:
            return poly
        out = {}
        groups = {}
        for e, c in poly.terms.items():
            key = tuple(e[i] for i in index)
            if not any(key):
                out[e] = c
                continue
            rest = list(e)
            for i in index:
                rest[i] = 0
            groups.setdefault(key, {})[tuple(rest)] = c
        for key, rest in groups.items():
            cut = ctx.order - min(r[EPS] for r in rest)
            _add_terms(out, MultiPoly(ctx, rest).mul(self.image(key, cut)).terms)
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
        self.entries = {m: p for m, p in entries.items() if p.terms}

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
