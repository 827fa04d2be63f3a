"""Perturbation scheme for the difference equation y(t+pi) - y(t-pi) = 2 eps U(e^{it}) y(t).

Every harmonic is resonant here, so the renormalized amplitudes coincide with
the secular coefficients.  Time is measured in units of pi throughout this
module: the polynomial variable stored in the ``t`` slot is tau = t/pi, which
turns the +-pi shifts into tau +- 1 and the carrier factor into (-1)^m, so
everything stays inside exact rational arithmetic.

The infinite bare family {A_m} is handled by an explicit window: A_m is a
symbol for |m| <= W and identically zero outside.  A query for harmonic m at
order K is guaranteed exact when W >= |m| + K*S, where S bounds the support
of 2U; queries outside that region are refused rather than silently
truncated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .gaussrat import GaussianRational, ONE, ZERO
from .poly import PolyContext, MultiPoly, HarmonicSeries, Substitution
from .systems import ODESystemSpec
from .checks import CheckReport, _compare_tables, functional_relation


class WindowError(ValueError):
    pass


class LaurentPoly:
    """Finite-support map l -> coefficient of z^l; stores 2U(z) = sum alpha_l z^l."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {l: c for l, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def from_alpha(cls, alpha: dict) -> "LaurentPoly":
        return cls(dict(alpha))

    def is_zero(self) -> bool:
        return not self.terms

    def support_bound(self) -> int:
        return max((abs(l) for l in self.terms), default=0)

    def is_even(self) -> bool:
        """U(z) = U(-z), i.e. no odd powers."""
        return all(l % 2 == 0 for l in self.terms)

    def invert_z(self) -> "LaurentPoly":
        return LaurentPoly({-l: c for l, c in self.terms.items()})

    def negate_z(self) -> "LaurentPoly":
        return LaurentPoly(
            {l: (c if l % 2 == 0 else -c) for l, c in self.terms.items()}
        )

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = {}
        for l1, c1 in self.terms.items():
            for l2, c2 in other.terms.items():
                l = l1 + l2
                c = c1 * c2
                acc = out.get(l)
                out[l] = c if acc is None else acc + c
        return LaurentPoly(out)

    def coeff(self, l: int) -> GaussianRational:
        return self.terms.get(l, ZERO)

    def eval_complex(self, z: complex) -> complex:
        return sum(complex(c) * z ** l for l, c in self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None


# --------------------------------------------------------------------------
# The g_k polynomials and the constants N_k
# --------------------------------------------------------------------------

def solve_advance(q) -> list:
    """The p with p(u+1) - p(u-1) = q(u) and p(0) = 0 (unique up to that pin)."""
    d = len(q) - 1
    c = [Fraction(0)] * (d + 2)
    for j in range(d, -1, -1):
        acc = Fraction(0)
        for l in range(j + 2, d + 2):
            if (l - j) % 2 == 1:
                acc += 2 * c[l] * math.comb(l, j)
        c[j + 1] = (q[j] - acc) / (2 * (j + 1))
    return c


def gk_closed(k: int) -> list:
    """Closed-form degree-k polynomial: u * product form / (2^k k!)."""
    if k == 0:
        return [Fraction(1)]
    poly = [Fraction(0), Fraction(1)]  # u

    def mul_linear(p, shift):
        # p * (u + shift)
        out = [Fraction(0)] * (len(p) + 1)
        for i, c in enumerate(p):
            out[i + 1] += c
            out[i] += c * shift
        return out

    if k % 2 == 0:
        a = k // 2
        for i in range(1 - a, a):
            poly = mul_linear(poly, Fraction(2 * i))
    else:
        a = (k - 1) // 2
        for b in range(1, a + 1):
            poly = mul_linear(poly, Fraction(2 * b - 1))
            poly = mul_linear(poly, Fraction(-(2 * b - 1)))
    denom = Fraction(2 ** k) * math.factorial(k)
    return [c / denom for c in poly]


def norm_constants(count: int) -> list:
    """N_k = C(2k,k) / (2^{2k} (2k+1))."""
    return [
        Fraction(math.comb(2 * k, k), 2 ** (2 * k) * (2 * k + 1))
        for k in range(count)
    ]


@dataclass
class GkTable:
    polys: list   # dense Fraction coefficients, polys[k] has degree k
    norms: list   # N_0 .. N_{floor(K/2)}

    def eval_at(self, k: int, u: Fraction) -> Fraction:
        return sum(c * u ** i for i, c in enumerate(self.polys[k]))


def gk_poly(K: int) -> GkTable:
    """g_0..g_K by solving the advance recursion, pinned by g_k(0) = 0 (k >= 1).

    Cross-checked against the closed-form product expansion of the Gamma
    ratio; a mismatch means the recursion solver is broken.
    """
    if K < 0:
        raise ValueError("order must be >= 0")
    polys = [[Fraction(1)]]
    for k in range(1, K + 1):
        polys.append(solve_advance(polys[k - 1]))
    for k, p in enumerate(polys):
        closed = gk_closed(k)
        if [c for c in p] != [c for c in closed]:
            raise AssertionError(f"g_{k} recursion disagrees with the closed form")
    return GkTable(polys, norm_constants(K // 2 + 1))


# --------------------------------------------------------------------------
# Coefficient recursions C_{k,j}
# --------------------------------------------------------------------------

def ckj_coeffs(u2: LaurentPoly, k: int) -> LaurentPoly:
    """The generating function h_k(z); C_{k,j} is its z^j coefficient.

    h_k(z) = 2U((-1)^{k-1} z^{-1}) h_{k-1}(z) with h_0 = 1, equivalently the
    alternating product of 2U(+-z^{-1}) factors.
    """
    h = LaurentPoly({0: ONE})
    for i in range(1, k + 1):
        factor = u2.invert_z()
        if (i - 1) % 2 == 1:
            factor = factor.negate_z()
        h = factor * h
    return h


def bmk_direct(u2: LaurentPoly, m: int, k: int) -> dict:
    """B_{m,k} by the direct amplitude recursion; returns {n: coeff of A_n}.

    B_{m,0} = A_m and B_{m,k} = sum_l alpha_l (-1)^{(k-1) l} B_{m-l,k-1};
    independent of the h_k generating-function route.
    """
    span = k * u2.support_bound()
    cur = {n: {n: ONE} for n in range(m - span, m + span + 1)}
    for step in range(1, k + 1):
        cur = _bmk_layer(u2, cur, step - 1)
    return cur.get(m, {})


def _bmk_layer(u2: LaurentPoly, prev: dict, sgn_power: int) -> dict:
    out = {}
    span = u2.support_bound()
    indices = set()
    for mm in prev:
        for l in u2.terms:
            indices.add(mm + l)
    for mm in indices:
        acc = {}
        for l, alpha in u2.terms.items():
            src = prev.get(mm - l)
            if not src:
                continue
            c = alpha if (sgn_power * l) % 2 == 0 else -alpha
            for n, v in src.items():
                w = acc.get(n)
                add = c * v
                acc[n] = add if w is None else w + add
        acc = {n: v for n, v in acc.items() if not v.is_zero()}
        if acc:
            out[mm] = acc
    return out


# --------------------------------------------------------------------------
# Amplitude window and secular coefficients
# --------------------------------------------------------------------------

def amp_name(m: int) -> str:
    return f"A[{m}]"


def make_context(K: int, W: int) -> PolyContext:
    return PolyContext(tuple(amp_name(m) for m in range(-W, W + 1)), (), K)


def window_band(u2: LaurentPoly, K: int, W: int, m: int = 0) -> int:
    """The band half-width W - K*S: harmonics |m| <= band are exact at order K.

    Raises WindowError when harmonic m lies outside the band (for m = 0: when
    the band is empty).
    """
    reach = K * u2.support_bound()
    band = W - reach
    if abs(m) > band:
        raise WindowError(
            f"window W={W} too small for harmonic {m} at order {K} "
            f"(need >= {abs(m) + reach})"
        )
    return band


def _amp_var(ctx: PolyContext, W: int, n: int) -> MultiPoly:
    """A_n as a context symbol, or zero outside the window."""
    if abs(n) > W:
        return ctx.zero()
    return ctx.var(amp_name(n))


def secular_windowed(u2: LaurentPoly, m: int, K: int, W: int, ctx: PolyContext,
                     gk: GkTable) -> MultiPoly:
    """P_m for the windowed bare family (A_n = 0 outside |n| <= W)."""
    out = _amp_var(ctx, W, m)
    for k in range(1, K + 1):
        hk = ckj_coeffs(u2, k)
        tk = ctx.zero()
        for j, c in hk.terms.items():
            a = _amp_var(ctx, W, m + j)
            if a.is_zero():
                continue
            tk = tk + a.scale(c if (m * k) % 2 == 0 else -c)
        if tk.is_zero():
            continue
        gpoly = ctx.zero()
        for i, q in enumerate(gk.polys[k]):
            if q:
                gpoly = gpoly + ctx.var("t", i).scale(q)
        out = out + (tk * gpoly) * ctx.var("eps", k)
    return out


def secular_pm(u2: LaurentPoly, m: int, K: int, W: int, ctx: PolyContext | None = None) -> MultiPoly:
    """The secular coefficient P_m(eps, tau, A), exact within the window."""
    window_band(u2, K, W, m)
    if ctx is None:
        ctx = make_context(K, W)
    return secular_windowed(u2, m, K, W, ctx, gk_poly(K))


# --------------------------------------------------------------------------
# Theta resummation (even U)
# --------------------------------------------------------------------------

def _flip_odd(hs: HarmonicSeries) -> HarmonicSeries:
    """Negate every odd-index entry: zeta -> -zeta, or t -> t + pi on the carrier."""
    return HarmonicSeries(
        hs.ctx, {m: (p if m % 2 == 0 else -p) for m, p in hs.entries.items()}
    )


def _eps_u(ctx: PolyContext, u2: LaurentPoly) -> HarmonicSeries:
    """eps*U(zeta) as a harmonic series in the zeta-power."""
    eps = ctx.var("eps")
    return HarmonicSeries(
        ctx, {l: eps.scale(c).scale(Fraction(1, 2)) for l, c in u2.terms.items()}
    )


class ThetaSeries:
    """Theta(eps, zeta) = sum_k (-1)^k N_k (eps U(zeta))^{2k+1}, truncated.

    Stored as a HarmonicSeries whose harmonic index is the zeta-power and
    whose entries are polynomials in eps; sinh(Theta) = eps U(zeta) holds mod
    eps^(K+1) by construction.
    """

    def __init__(self, ctx: PolyContext, series: HarmonicSeries, u2: LaurentPoly):
        self.ctx = ctx
        self.series = series
        self.u2 = u2
        self._kernels = {}

    def zeta_negated(self) -> HarmonicSeries:
        return _flip_odd(self.series)

    def kernel(self, odd: bool) -> HarmonicSeries:
        """exp(Theta(eps,zeta) tau), or exp(-Theta tau) if odd; built once per parity."""
        out = self._kernels.get(odd)
        if out is None:
            tau = self.ctx.var("t")
            arg = self.series.map_entries(lambda p: p * tau)
            out = self._kernels[odd] = _exp_series(-arg if odd else arg)
        return out

    def sinh_residual(self) -> HarmonicSeries:
        """sinh(Theta) - eps U(zeta); identically zero mod eps^(K+1)."""
        K = self.ctx.order
        acc = HarmonicSeries.zero(self.ctx)
        power = self.series
        n = 1
        while n <= K:
            acc = acc + power.map_entries(lambda p: p.scale(Fraction(1, math.factorial(n))))
            power = power.mul(self.series).mul(self.series)
            n += 2
        return acc - _eps_u(self.ctx, self.u2)


def theta_series(u2: LaurentPoly, K: int, ctx: PolyContext | None = None, W: int = 0) -> ThetaSeries:
    """The power-series solution of sinh(Theta) = eps U in the zeta variable."""
    if ctx is None:
        ctx = make_context(K, W)
    epsu = _eps_u(ctx, u2)
    norms = norm_constants(K // 2 + 1)
    acc = HarmonicSeries.zero(ctx)
    power = epsu
    for k in range(0, (K - 1) // 2 + 1):
        coeff = norms[k] if k % 2 == 0 else -norms[k]
        acc = acc + power.map_entries(lambda p, q=coeff: p.scale(q))
        if 2 * k + 3 <= K:
            power = power.mul(epsu).mul(epsu)
    return ThetaSeries(ctx, acc, u2)


def _exp_series(x: HarmonicSeries) -> HarmonicSeries:
    """exp of an O(eps) harmonic series, truncated at the context order."""
    ctx = x.ctx
    out = HarmonicSeries.single(0, ctx.one())
    term = HarmonicSeries.single(0, ctx.one())
    for n in range(1, ctx.order + 1):
        term = term.mul(x).map_entries(lambda p, q=Fraction(1, n): p.scale(q))
        if term.is_zero():
            break
        out = out + term
    return out


def closed_form_amplitude(u2: LaurentPoly, m: int, K: int, W: int,
                          ctx: PolyContext | None = None) -> MultiPoly:
    """Theta-resummed amplitude for even U; equals secular_pm mod eps^(K+1)."""
    if not u2.is_even():
        raise ValueError("closed-form amplitudes require an even U")
    window_band(u2, K, W, m)
    if ctx is None:
        ctx = make_context(K, W)
    return _closed_windowed(u2, m, K, W, ctx, theta_series(u2, K, ctx))


def _closed_windowed(u2, m, K, W, ctx, theta) -> MultiPoly:
    """A_m = sum_j c_j A_{m-j}, c the kernel of m's parity."""
    out = ctx.zero()
    for j, p in theta.kernel(m % 2 != 0).entries.items():
        a = _amp_var(ctx, W, m - j)
        if not a.is_zero():
            out = out + p * a
    return out


def _closed_family(u2: LaurentPoly, K: int, W: int, ctx: PolyContext, theta) -> dict:
    """m -> A_m for every harmonic the windowed family reaches, |m| <= W + K*S."""
    span = W + K * u2.support_bound()
    return {m: _closed_windowed(u2, m, K, W, ctx, theta) for m in range(-span, span + 1)}


def generating_series(u2: LaurentPoly, K: int, W: int, ctx: PolyContext) -> HarmonicSeries:
    """A(zeta, tau) = sum_m A_m(eps,tau,A) zeta^m for the windowed family."""
    return HarmonicSeries(ctx, _closed_family(u2, K, W, ctx, theta_series(u2, K, ctx)))


# --------------------------------------------------------------------------
# Identity checks
# --------------------------------------------------------------------------

def check_difference_identities(u2: LaurentPoly, K: int, W: int, label="difference"):
    """The three exact identities of the scheme, each as a CheckReport.

    (i)   A_m(eps,t,A) = A_m(eps,t-s,{A_j(eps,s,A)}) within the window;
    (ii)  Y(t+pi) - Y(t-pi) = 2 eps U(e^{it}) Y for Y built from the
          Theta-resummed generating series;
    (iii) dA(zeta,t)/dt = (Theta(eps,zeta)/pi) A(-zeta,t).
    """
    names = ("check_functional_relation", "check_difference_equation", "check_rg_flow")
    if not u2.is_even():
        return [
            CheckReport(name, label, K, True, applicable=False,
                        detail="not applicable (needs an even U)")
            for name in names
        ]
    band = window_band(u2, K, W)
    ctx = make_context(K, W)
    theta = theta_series(u2, K, ctx)
    closed = _closed_family(u2, K, W, ctx, theta)

    # (i) functional relation among the renormalized amplitudes
    amplitudes = {amp_name(n): closed[n] for n in range(-W, W + 1)}
    entries = ((f"harmonic {m}", closed[m]) for m in range(-band, band + 1))
    reports = [functional_relation(ctx, amplitudes, entries, label)]

    # (ii) the difference equation for the resummed solution; zeta -> e^{it}
    # keeps the harmonic bookkeeping, each amplitude takes its parity's kernel
    y = HarmonicSeries.zero(ctx)
    for odd in (False, True):
        mu = HarmonicSeries(
            ctx, {m: ctx.var(amp_name(m)) for m in range(-W, W + 1) if (m % 2 != 0) == odd}
        )
        y = y + theta.kernel(odd).mul(mu)

    def shift(hs, delta):
        # t -> t + delta*pi: tau -> tau + delta, and e^{imt} gains (-1)^m
        advance = Substitution(ctx, {"t": ctx.var("t") + ctx.const(delta)})
        return _flip_odd(hs.map_entries(advance))

    reports.append(_compare_series(
        shift(y, 1) - shift(y, -1), _eps_u(ctx, u2).mul(y + y),
        "harmonic", names[1], label, K,
    ))

    # (iii) the RG flow of the generating series
    gen = HarmonicSeries(ctx, closed)
    reports.append(_compare_series(
        gen.map_entries(lambda p: p.diff_t()), theta.series.mul(_flip_odd(gen)),
        "zeta-power", names[2], label, K,
    ))
    return reports


def _compare_series(lhs: HarmonicSeries, rhs: HarmonicSeries, index, name, label, K):
    """Compare two series index by index in increasing order."""
    support = sorted(lhs.entries.keys() | rhs.entries.keys())
    return _compare_tables(
        ((f"{index} {m}", lhs.get(m), rhs.get(m)) for m in support), name, label, K
    )


def stability_flag(u2: LaurentPoly, eps: float, samples: int = 256) -> dict:
    """Numeric diagnostic (reported, not asserted): Theta on the unit circle."""
    max_re = 0.0
    max_mod = 0.0
    for k in range(samples):
        t = 2 * math.pi * k / samples
        w = eps * u2.eval_complex(cmath.exp(1j * t)) / 2
        theta = cmath.log(cmath.sqrt(1 + w * w) + w)
        max_re = max(max_re, abs(theta.real))
        max_mod = max(max_mod, abs(w))
    return {
        "eps": eps,
        "theta_purely_imaginary": max_re < 1e-9,
        "eps_u_bounded_by_one": max_mod <= 1 + 1e-12,
        "max_abs_re_theta": max_re,
        "max_abs_eps_u": max_mod,
    }


def u2_from_spec(spec: ODESystemSpec) -> LaurentPoly:
    return LaurentPoly.from_alpha(spec.alpha)
