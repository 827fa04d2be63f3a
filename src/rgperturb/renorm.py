"""Renormalization layer: RG equations, renormalized expansions, inversion.

The renormalized amplitudes are the resonant secular coefficients of a
SecularTable (for the scalar class, their successive t-derivatives).  The RG
vector field for one amplitude is the t^1 coefficient of its defining
polynomial -- extracting the s-derivative at s=0 of P(eps,s,.) order by order
-- read as a polynomial in the renormalized amplitudes.  Renormalized objects
reuse the bare amplitude symbol names; rendering marks them as renormalized.
"""

from __future__ import annotations

from fractions import Fraction

from .gaussrat import GaussianRational
from .poly import PolyContext, MultiPoly, HarmonicSeries, join_signed, lie_series, monomial_text
from .systems import SpecError
from .engine import SecularTable, solve


class PolarPairingError(ValueError):
    pass


def renormalized_amplitudes(table: SecularTable) -> dict:
    """Amplitude symbol -> its defining polynomial in (eps, t, bare A)."""
    return dict(zip(table.ctx.amplitudes, table.amplitude_polys()))


class RGSystem:
    """Autonomous polynomial vector field for the renormalized amplitudes."""

    def __init__(self, ctx: PolyContext, fields, scalar_factors=()):
        self.ctx = ctx
        self.fields = fields  # list[MultiPoly], aligned with ctx.amplitudes
        self.scalar_factors = scalar_factors

    def scalar_forms(self):
        """For the scalar class, the n_r-th-order form per basic amplitude."""
        if not self.scalar_factors:
            raise SpecError("scalar_forms only applies to the scalar class")
        out = []
        pos = 0
        for m_r, n_r in self.scalar_factors:
            out.append((self.ctx.amplitudes[pos], n_r, self.fields[pos + n_r - 1]))
            pos += n_r
        return out

    def render(self) -> str:
        lines = ["# renormalized amplitudes"]
        for name, f in zip(self.ctx.amplitudes, self.fields):
            lines.append(f"d{name}/dt = {f.render()}")
        return "\n".join(lines)


class RenExpansion:
    """Per component, the t-free table P_{j,m}(eps, 0, renormalized A)."""

    def __init__(self, ctx: PolyContext, components):
        self.ctx = ctx
        self.components = components  # list[HarmonicSeries]

    def entry(self, j: int, m: int) -> MultiPoly:
        return self.components[j].get(m)

    def render(self) -> str:
        lines = ["# renormalized expansion (amplitudes are renormalized)"]
        for j, comp in enumerate(self.components):
            for m in comp.support():
                lines.append(f"Y[{j + 1},{m}] = {comp.entries[m].render()}")
        return "\n".join(lines)


def derive_rg(table: SecularTable) -> RGSystem:
    """The RG equation: d(amplitude)/dt as a polynomial in the amplitudes.

    Uniformly the t^1 coefficient of the amplitude's defining polynomial;
    for the scalar class this reproduces both the trivial chain relations
    and the n_r-th-order equation for the basic amplitudes.
    """
    fields = []
    for p in table.amplitude_polys():
        f = p.coeff_power("t", 1)
        if f.degree("s") > 0 or f.degree("t") > 0:
            raise AssertionError("RG field must be autonomous")
        fields.append(f)
    factors = table.spec.factors if table.spec.klass == "scalar" else ()
    return RGSystem(table.ctx, fields, factors)


def renormalized_expansion(table: SecularTable) -> RenExpansion:
    """Set t=0 in every secular coefficient; amplitudes become renormalized."""
    out = [
        HarmonicSeries(table.ctx, {m: p.set_zero("t") for m, p in comp.entries.items()})
        for comp in table.observed_components()
    ]
    return RenExpansion(table.ctx, out)


def solve_rg(spec) -> tuple:
    """The RG system and the renormalized expansion of a spec, without a secular table.

    Both come from the engine's t-free solve (`engine.solve`); they equal
    `derive_rg` and `renormalized_expansion` of `expand_table(spec)`.
    """
    sol = solve(spec)
    factors = spec.factors if spec.klass == "scalar" else ()
    return RGSystem(sol.ctx, sol.fields, factors), RenExpansion(sol.ctx, sol.expansion)


def inversion_series(rg: RGSystem) -> dict:
    """Bare amplitudes as polynomials in (eps, t, renormalized A), from the RG field.

    The renormalized amplitudes are the flow exp(tL) A_k of the field, so
    the bare ones are its Lie series at -t, exp(-tL) A_k: the same
    polynomials as `invert_amplitudes` of the table.
    """
    ctx = rg.ctx
    names = ctx.amplitudes
    series = lie_series([HarmonicSeries.single(0, ctx.var(a)) for a in names], rg.fields, -1)
    return {name: hs.get(0) for name, hs in zip(names, series)}


def invert_amplitudes(table: SecularTable) -> dict:
    """Bare amplitudes as polynomials in (eps, t, renormalized A).

    A = P(eps, -t, renormalized A) per resonant coefficient (with the
    derivative slots for the scalar class); composing with the renormalized
    amplitudes gives the identity mod eps^(K+1).
    """
    return {
        name: p.negate_symbol("t")
        for name, p in zip(table.ctx.amplitudes, table.amplitude_polys())
    }


# --------------------------------------------------------------------------
# Polar form
# --------------------------------------------------------------------------

COS, SIN = 0, 1


def polar_names(npairs: int) -> tuple:
    """Default radius and phase names: R, theta for one pair, else R1, theta1, ..."""
    if npairs == 1:
        return ["R"], ["theta"]
    return [f"R{a+1}" for a in range(npairs)], [f"theta{a+1}" for a in range(npairs)]


class TrigSeries:
    """Real trigonometric polynomial in magnitudes R_a and phases theta_a.

    Terms are keyed by (eps power, R exponents, parameter exponents, the
    integer weight m of the fast phase t, the integer weight vector w of the
    theta phases, cos|sin); the phase is  m*t + w.theta  in multiple-angle
    form with the leading nonzero weight positive.
    """

    def __init__(self, npairs: int, terms=None):
        self.npairs = npairs
        self.terms = terms or {}

    def _add(self, key, q: Fraction):
        if not q:
            return
        acc = self.terms.get(key)
        if acc is None:
            self.terms[key] = q
        else:
            acc = acc + q
            if acc:
                self.terms[key] = acc
            else:
                del self.terms[key]

    def add_complex(self, c: GaussianRational, eps: int, rexps, pexps, m: int, w, part):
        """Accumulate Re or Im of c * R^rexps * params^pexps * e^{i(mt + w.theta)}."""
        phase = (m,) + tuple(w)
        sign = 0
        for x in phase:
            if x:
                sign = 1 if x > 0 else -1
                break
        if sign < 0:
            m = -m
            w = tuple(-x for x in w)
        flip = Fraction(-1 if sign < 0 else 1)
        if part == "re":
            cosq, sinq = c.re, -c.im
        else:
            cosq, sinq = c.im, c.re
        key = (eps, tuple(rexps), tuple(pexps), m, tuple(w))
        self._add(key + (COS,), cosq)
        if sign != 0:
            self._add(key + (SIN,), sinq * flip)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TrigSeries):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def trunc(self, k: int) -> "TrigSeries":
        return TrigSeries(self.npairs, {key: q for key, q in self.terms.items() if key[0] <= k})

    def divide_radius(self, a: int) -> "TrigSeries":
        """Divide by R_a; every term must carry a positive power of it."""
        out = {}
        for key, q in self.terms.items():
            eps, rexps, pexps, m, w, kind = key
            if rexps[a] < 1:
                raise PolarPairingError("field is not divisible by the radius")
            rexps = rexps[:a] + (rexps[a] - 1,) + rexps[a + 1:]
            out[(eps, rexps, pexps, m, w, kind)] = q
        return TrigSeries(self.npairs, out)

    def phase_name(self, m, w, theta_names) -> str:
        parts = []
        if m:
            parts.append("t" if m == 1 else f"{m}*t")
        for x, name in zip(w, theta_names):
            if not x:
                continue
            if x == 1:
                frag = name
            elif x == -1:
                frag = f"-{name}"
            else:
                frag = f"{x}*{name}"
            if parts and not frag.startswith("-"):
                parts.append(f"+{frag}")
            else:
                parts.append(frag)
        return "".join(parts)

    def render(self, radius_names=None, theta_names=None, param_names=()) -> str:
        default_r, default_theta = polar_names(self.npairs)
        radius_names = default_r if radius_names is None else radius_names
        theta_names = default_theta if theta_names is None else theta_names
        names = ("eps", *radius_names, *param_names)
        parts = []
        for key in sorted(self.terms, key=lambda k: (k[0], k[3], k[4], k[1], k[2], k[5])):
            eps, rexps, pexps, m, w, kind = key
            q = self.terms[key]
            mono = monomial_text(names, (eps,) + rexps + pexps)
            factors = [mono] if mono else []
            if m or any(w):
                fn = "cos" if kind == COS else "sin"
                factors.append(f"{fn}({self.phase_name(m, w, theta_names)})")
            neg = q < 0
            q = abs(q)
            if q != 1 or not factors:
                factors.insert(0, str(q))
            parts.append(("-" if neg else "") + "*".join(factors))
        return join_signed(parts)


class PolarRG:
    """RG system rewritten in magnitude/phase variables for conjugate pairs."""

    def __init__(self, npairs, d_radius, d_theta, param_names=()):
        self.npairs = npairs
        self.d_radius = d_radius  # list[TrigSeries]
        self.d_theta = d_theta    # list[TrigSeries]
        self.param_names = param_names

    def render(self) -> str:
        rnames, tnames = polar_names(self.npairs)
        lines = []
        for a in range(self.npairs):
            lines.append(
                f"d{rnames[a]}/dt = "
                + self.d_radius[a].render(rnames, tnames, self.param_names)
            )
            lines.append(
                f"d{tnames[a]}/dt = "
                + self.d_theta[a].render(rnames, tnames, self.param_names)
            )
        return "\n".join(lines)


def _amp_pair_layout(ctx: PolyContext, pairs):
    n = len(ctx.amplitudes)
    flat = [i for pair in pairs for i in pair]
    if sorted(flat) != list(range(n)):
        raise PolarPairingError("pairs must cover every amplitude exactly once")
    return n


def check_pair_symmetry(rg: RGSystem, pairs) -> None:
    """Fields must map to each other under pair swap plus i -> -i."""
    names = rg.ctx.amplitudes
    swap = {}
    for p, q in pairs:
        swap[names[p]] = names[q]
        swap[names[q]] = names[p]
    for p, q in pairs:
        image = rg.fields[p].rename(swap).conj_coeffs()
        if image != rg.fields[q]:
            raise PolarPairingError(
                f"fields for pair ({names[p]},{names[q]}) are not conjugate-symmetric"
            )


def _complex_terms_polar(poly: MultiPoly, pairs, npairs):
    """Yield (coeff, eps, rexps, pexps, w) for poly under A -> R e^{±i theta}."""
    split = poly.ctx.split
    for e, c in poly.terms.items():
        eps, _, _, aexp, pexp = split(e)
        rexps = [0] * npairs
        w = [0] * npairs
        for a, (p, q) in enumerate(pairs):
            rexps[a] = aexp[p] + aexp[q]
            w[a] = aexp[p] - aexp[q]
        yield c, eps, tuple(rexps), tuple(pexp), tuple(w)


def polar_transform(rg: RGSystem, pairs) -> PolarRG:
    """Rewrite a conjugate-symmetric RG system in (R_a, theta_a) variables.

    Pair a identifies amplitudes (plus, minus) with A_plus = R_a e^{i theta_a}
    and A_minus = R_a e^{-i theta_a}.  Then dR_a/dt = Re(e^{-i theta_a} f_plus)
    and dtheta_a/dt = Im(e^{-i theta_a} f_plus)/R_a, in multiple-angle form.
    """
    ctx = rg.ctx
    _amp_pair_layout(ctx, pairs)
    check_pair_symmetry(rg, pairs)
    npairs = len(pairs)
    d_radius, d_theta = [], []
    for a, (p, q) in enumerate(pairs):
        re_series = TrigSeries(npairs)
        im_series = TrigSeries(npairs)
        for c, eps, rexps, pexps, w in _complex_terms_polar(rg.fields[p], pairs, npairs):
            w = list(w)
            w[a] -= 1  # the e^{-i theta_a} factor
            re_series.add_complex(c, eps, rexps, pexps, 0, tuple(w), "re")
            im_series.add_complex(c, eps, rexps, pexps, 0, tuple(w), "im")
        d_radius.append(re_series)
        d_theta.append(im_series.divide_radius(a))
    return PolarRG(npairs, d_radius, d_theta, ctx.params)


def polar_projection(ren: RenExpansion, weights, pairs) -> TrigSeries:
    """Real reconstruction sum_j weight_j Y_j under the polar substitution.

    Produces the multiple-angle form of a real observable (e.g. an oscillator
    coordinate q = (Y_1 - Y_2)/(2i)) with the harmonic carriers contributing
    the t part of each phase.
    """
    ctx = ren.ctx
    _amp_pair_layout(ctx, pairs)
    npairs = len(pairs)
    out = TrigSeries(npairs)
    for wgt, comp in zip(weights, ren.components):
        if wgt.is_zero():
            continue
        for m, poly in comp.entries.items():
            for c, eps, rexps, pexps, w in _complex_terms_polar(poly, pairs, npairs):
                out.add_complex(c * wgt, eps, rexps, pexps, m, w, "re")
    return out
