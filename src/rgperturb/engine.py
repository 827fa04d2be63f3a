"""Naive-perturbation engines for the three ODE classes.

Each engine builds, order by order in eps, the unique formal solution whose
harmonic coefficients satisfy the class's normalization:

* semisimple -- the resonant coefficient (component j, harmonic m_j) carries
  no t-constant term at eps-order >= 1;
* nilpotent  -- the harmonic-0 coefficients all vanish at t=0 for orders >= 1
  (after the internal e^{imt} gauge reduction when the block eigenvalue is
  nonzero);
* scalar     -- the resonant coefficient at harmonic m_r is divisible by
  t^{n_r} at every order >= 1.

The result is a SecularTable: per component (or per derivative slot for the
scalar class) a HarmonicSeries of secular coefficients, with resonance
metadata.

The three engines share one order-by-order driver, `_expand`; each class
supplies only its setup and a `solve` step built on `_invert`, which inverts
the shifted time-derivative operator harmonic by harmonic.  The forcing
layer each order needs comes from `ForcingLayers`, a relaxed cache of the
eps-layers of the state powers that lives for one `_expand` call, so every
layer is computed once.  `governing_residual` substitutes series back into
the class's equation; its forcing goes through `eval_vpoly_hs`, the
from-scratch evaluator on whole series that the engine does not use, so the
residual check stays independent of `ForcingLayers`.  Its cache holds each
state-monomial product y^se once for all components of one residual.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .gaussrat import GaussianRational
from .poly import (
    PolyContext,
    MultiPoly,
    HarmonicSeries,
    hs_pow,
    resolve_shift,
)
from .systems import ODESystemSpec, SpecError


class SecularTable:
    """Secular coefficients P_{j,m}(eps,t,A) of one expansion."""

    def __init__(self, spec, ctx, components, resonant, label=""):
        self.spec = spec
        self.ctx = ctx
        self.components = components  # list[HarmonicSeries]
        self.resonant = resonant      # list[(component, harmonic)]
        self.label = label or spec.klass

    @property
    def order(self) -> int:
        return self.ctx.order

    def entry(self, j: int, m: int) -> MultiPoly:
        return self.components[j].get(m)

    def observed_components(self) -> list:
        """The components the identities are stated for.

        The scalar class keeps only slot 0, y itself: its other slots are the
        time derivatives of y and follow from it.
        """
        return self.components[:1] if self.spec.klass == "scalar" else self.components

    def amplitude_polys(self) -> list:
        """The renormalized amplitudes as polynomials in (eps, t, A).

        Entry k corresponds to ctx.amplitudes[k].  For the scalar class these
        are the successive t-derivatives of the resonant coefficients.
        """
        spec = self.spec
        if spec.klass == "semisimple":
            return [self.components[j].get(m) for j, m in self.resonant]
        if spec.klass == "nilpotent":
            return [self.components[j].get(0) for j in range(spec.block_size)]
        if spec.klass == "scalar":
            out = []
            for m_r, n_r in spec.factors:
                p = self.components[0].get(m_r)
                for _ in range(n_r):
                    out.append(p)
                    p = p.diff_t()
            return out
        raise SpecError(f"no amplitudes for class {spec.klass!r}")

    def render(self) -> str:
        lines = []
        for j, comp in enumerate(self.components):
            for m in comp.support():
                lines.append(f"P[{j + 1},{m}] = {comp.entries[m].render()}")
        return "\n".join(lines)


def make_context(spec: ODESystemSpec) -> PolyContext:
    return PolyContext(spec.amplitude_names, spec.params, spec.order)


def eval_vpoly_hs(vp: HarmonicSeries, comps, ctx: PolyContext, trunc: int,
                  cache=None) -> HarmonicSeries:
    """Evaluate a forcing series with states bound to harmonic series.

    V's context has the states where `ctx` has the amplitudes, one for one,
    so a term's exponent vector with the states zeroed is a monomial of
    `ctx`.  Harmonics and terms are visited in insertion order.

    `cache` maps a state exponent tuple se to y^se truncated at `trunc`; one
    cache may serve every component of one system of series at one `trunc`,
    as in `governing_residual`.  y^se is built left to right from the
    per-state powers y_j^k, themselves the cached tuples with one nonzero
    entry, so each term of V costs one product by its coefficient monomial.
    """
    if cache is None:
        cache = {}
    no_states = (0,) * len(ctx.amplitudes)

    def state_product(se):
        p = None  # y^prefix, the states before j kept and the rest zeroed
        for j, k in enumerate(se):
            if not k:
                continue
            prefix = se[:j + 1] + no_states[j + 1:]
            q = cache.get(prefix)
            if q is None:
                if p is None:
                    q = hs_pow(comps[j], k, trunc)
                else:
                    q = p.mul(state_product(no_states[:j] + (k,) + no_states[j + 1:]), trunc)
                cache[prefix] = q
            p = q
        return p

    split = vp.ctx.split
    out = HarmonicSeries.zero(ctx)
    for l, poly in vp.entries.items():
        for e, c in poly.terms.items():
            eps, t, s, se, pe = split(e)
            if eps > trunc:
                continue
            hs = HarmonicSeries.single(l, ctx.monomial(c, (eps, t, s) + no_states + pe))
            if any(se):
                hs = hs.mul(state_product(se), trunc)
            out = out + hs
    return out


class ForcingLayers:
    """The eps-layers of V on the table being built, each computed once.

    One object serves one `_expand` call; at order k it is handed the table,
    final through eps^(k-1), and returns the eps^(k-1) layer of V on it.  It
    keeps the eps-layers y_j[a] of every component and, per state monomial
    se, the layers of y^se computed so far.  Layer n of y^se is
    sum_{a=0..n} y_j[a] * L(se - e_j)[n-a], peeling the lowest nonzero state
    j as `poly.Substitution` does, so each order adds only the new layers:
    online ("relaxed") power-series multiplication, van der Hoeven, J. Symb.
    Comp. 34 (2002).  `eval_vpoly_hs` remains the reference evaluator.
    """

    def __init__(self, v_polys, ctx: PolyContext):
        self.v_polys = v_polys
        self.ctx = ctx
        self._layers = []  # _layers[a][j]: eps^a layer of component j
        self._powers = {}  # state exponents se -> [L(se)[0], L(se)[1], ...]

    def _power(self, se: tuple, n: int) -> HarmonicSeries:
        """L(se)[n], the eps^n layer of y^se."""
        powers = self._powers
        # peel one state at a time off se, down to a power whose layers reach
        # n or to y^0, then extend the layers of each power bottom-up
        chain = []
        while len(powers.setdefault(se, [])) <= n and any(se):
            j = min(i for i, k in enumerate(se) if k)
            chain.append((se, j))
            se = se[:j] + (se[j] - 1,) + se[j + 1:]
        layers = powers[se]
        while len(layers) <= n:  # only y^0 can be short here
            layers.append(HarmonicSeries.zero(self.ctx) if layers
                          else HarmonicSeries.single(0, self.ctx.one()))
        for se, j in reversed(chain):
            lower, layers = layers, powers[se]
            for r in range(len(layers), n + 1):
                acc = HarmonicSeries.zero(self.ctx)
                for a in range(r + 1):
                    y = self._layers[a][j]
                    if y.entries:
                        acc = acc + y.mul(lower[r - a])
                layers.append(acc)
        return layers[n]

    def next_layer(self, comps) -> list:
        """Per component, the eps^(k-1) layer of V on `comps` at the k-th call."""
        ctx = self.ctx
        n = len(self._layers)
        self._layers.append([c.eps_coeff(n) for c in comps])
        no_states = (0,) * len(ctx.amplitudes)
        out = []
        for vp in self.v_polys:
            split = vp.ctx.split
            acc = HarmonicSeries.zero(ctx)
            for l, poly in vp.entries.items():
                for e, c in poly.terms.items():
                    a, t, s, se, pe = split(e)
                    if a > n:
                        continue
                    mono = ctx.monomial(c, (0, t, s) + no_states + pe)
                    acc = acc + HarmonicSeries.single(l, mono).mul(self._power(se, n - a))
            out.append(acc)
        return out


def _invert(rhs: MultiPoly, m: int, factors) -> MultiPoly:
    """Polynomial P with  prod_r (d/dt + i(m - m_r))^{n_r} P = rhs.

    Resonant factors (m_r == m) are inverted by antidiff_t, which fixes the
    normalization; the others exactly by resolve_shift.
    """
    res_mult = 0
    for m_r, n_r in factors:
        if m == m_r:
            res_mult = n_r
            continue
        c = GaussianRational(0, m - m_r)
        for _ in range(n_r):
            rhs = resolve_shift(c, rhs)
    for _ in range(res_mult):
        rhs = rhs.antidiff_t()
    return rhs


def _invert_series(layer: HarmonicSeries, factors, epsk: MultiPoly) -> HarmonicSeries:
    return HarmonicSeries(
        layer.ctx, {m: _invert(p, m, factors) * epsk for m, p in layer.entries.items()}
    )


def _derivative_chain(hs: HarmonicSeries, n: int, ddt=HarmonicSeries.time_derivative) -> list:
    """[hs, ddt(hs), ..., ddt^(n-1)(hs)]."""
    out = [hs]
    while len(out) < n:
        out.append(ddt(out[-1]))
    return out


def _free_solution(ctx: PolyContext, names) -> MultiPoly:
    """g = sum_k A_k t^{k-1}/(k-1)!, the general solution of d^n g/dt^n = 0."""
    g = ctx.zero()
    for k, name in enumerate(names):
        g = g + (ctx.var(name) * ctx.var("t", k)).scale(Fraction(1, factorial(k)))
    return g


def _expand(spec, label, comps, v_polys, solve, resonant) -> SecularTable:
    """The order-by-order recursion shared by the three classes.

    At order k, `solve` maps the eps^(k-1) layer of V on the table so far,
    and eps^k, to the eps^k increment of every component.
    """
    ctx = comps[0].ctx
    eps = ctx.var("eps")
    forcing = ForcingLayers(v_polys, ctx)
    for k in range(1, spec.order + 1):
        step = solve(forcing.next_layer(comps), eps ** k)
        comps = [c + d for c, d in zip(comps, step)]
    return SecularTable(spec, ctx, comps, resonant, label=label)


def _shift_carrier(vp: HarmonicSeries, weights, offset) -> HarmonicSeries:
    """E^{-offset} V(eps, E, y_j -> E^{w_j} y_j).

    A term E^l y^se moves to harmonic l + sum_j w_j se_j - offset with its
    exponents unchanged, so no two terms meet.
    """
    split = vp.ctx.split
    out = {}
    for l, p in vp.entries.items():
        for e, c in p.terms.items():
            m = l - offset + sum(w * k for w, k in zip(weights, split(e)[3]))
            out.setdefault(m, {})[e] = c
    return HarmonicSeries(vp.ctx, {m: vp.ctx.from_terms(terms) for m, terms in out.items()})


def gauge_reduce_nilpotent(vp: HarmonicSeries, m: int) -> HarmonicSeries:
    """E^{-m} V(eps, E, y -> E^m y): removes the i*m*Id part of the block."""
    return _shift_carrier(vp, (m,) * len(vp.ctx.amplitudes), m)


def expand_semisimple(spec: ODESystemSpec, label="") -> SecularTable:
    if spec.klass != "semisimple":
        raise SpecError("expand_semisimple needs a semisimple spec")
    ctx = make_context(spec)
    modes = spec.modes
    comps = [HarmonicSeries.single(m, ctx.var(a)) for m, a in zip(modes, spec.amplitude_names)]

    def solve(layers, epsk):
        return [_invert_series(lay, ((m, 1),), epsk) for lay, m in zip(layers, modes)]

    return _expand(spec, label, comps, spec.v_polys, solve, list(enumerate(modes)))


def expand_nilpotent(spec: ODESystemSpec, label="") -> SecularTable:
    if spec.klass != "nilpotent":
        raise SpecError("expand_nilpotent needs a nilpotent spec")
    ctx = make_context(spec)
    n = spec.block_size
    v_polys = [gauge_reduce_nilpotent(vp, spec.block_mode) for vp in spec.v_polys]
    g = HarmonicSeries.single(0, _free_solution(ctx, spec.amplitude_names))

    def solve(layers, epsk):
        # back-substitution up the chain: P_j' + i*m*P_j = layer_j + P_{j+1}
        new = [{} for _ in range(n)]
        for m in sorted({m for lay in layers for m in lay.entries}):
            below = ctx.zero()
            for j in range(n - 1, -1, -1):
                below = _invert(layers[j].get(m) + below, m, ((0, 1),))
                if not below.is_zero():
                    new[j][m] = below * epsk
        return [HarmonicSeries(ctx, d) for d in new]

    resonant = [(j, 0) for j in range(n)]
    return _expand(spec, label, _derivative_chain(g, n), v_polys, solve, resonant)


def expand_scalar(spec: ODESystemSpec, label="") -> SecularTable:
    if spec.klass != "scalar":
        raise SpecError("expand_scalar needs a scalar spec")
    ctx = make_context(spec)
    N = spec.n_states
    entries = {}
    pos = 0
    for m_r, n_r in spec.factors:
        entries[m_r] = _free_solution(ctx, spec.amplitude_names[pos:pos + n_r])
        pos += n_r
    slots = _derivative_chain(HarmonicSeries(ctx, entries), N)

    def solve(layers, epsk):
        return _derivative_chain(_invert_series(layers[0], spec.factors, epsk), N)

    resonant = [(0, m_r) for m_r, _ in spec.factors]
    return _expand(spec, label, slots, spec.v_polys, solve, resonant)


def expand_table(spec: ODESystemSpec, label="") -> SecularTable:
    if spec.klass == "semisimple":
        return expand_semisimple(spec, label)
    if spec.klass == "nilpotent":
        return expand_nilpotent(spec, label)
    if spec.klass == "scalar":
        return expand_scalar(spec, label)
    raise SpecError(f"no expansion engine for class {spec.klass!r}")


# --------------------------------------------------------------------------
# Governing-equation residuals (used by the identity checks)
# --------------------------------------------------------------------------

def governing_residual(spec: ODESystemSpec, comps, ddt) -> list:
    """Substitute harmonic series into the class's governing equation.

    `ddt` is the time derivative of a HarmonicSeries: plain d/dt for the naive
    table, d/dt along the RG flow for the renormalized expansion.  For the
    scalar class `comps` holds either every derivative slot or slot 0 alone,
    whose derivatives are then built with `ddt`.  Returns one HarmonicSeries
    per equation; all are identically zero mod eps^(K+1) precisely when the
    series solve the equation.
    """
    ctx = comps[0].ctx
    K = ctx.order
    eps = ctx.var("eps")
    v_polys = spec.v_polys
    if spec.klass == "nilpotent":
        v_polys = [gauge_reduce_nilpotent(vp, spec.block_mode) for vp in v_polys]
    if spec.klass == "scalar" and len(comps) == 1:
        comps = _derivative_chain(comps[0], spec.n_states, ddt)
    cache = {}

    def forcing(j):
        if not K:
            return HarmonicSeries.zero(ctx)
        w = eval_vpoly_hs(v_polys[j], comps, ctx, K - 1, cache)
        return w.map_entries(lambda p: p * eps)

    def shifted(hs, m):  # (ddt - i*m) hs
        c = GaussianRational(0, m)
        return ddt(hs) - hs.map_entries(lambda p: p.scale(c))

    if spec.klass == "semisimple":
        return [shifted(comps[j], m) - forcing(j) for j, m in enumerate(spec.modes)]
    if spec.klass == "nilpotent":
        above = comps[1:] + [HarmonicSeries.zero(ctx)]
        return [ddt(comps[j]) - above[j] - forcing(j) for j in range(spec.block_size)]
    if spec.klass == "scalar":
        op = comps[0]
        for m_r, n_r in spec.factors:
            for _ in range(n_r):
                op = shifted(op, m_r)
        return [op - forcing(0)]
    raise SpecError(f"no governing equation for class {spec.klass!r}")


def table_residuals(table: SecularTable) -> list:
    """Substitute the table back into its governing equation.

    Returns one HarmonicSeries per equation component (plus, for the scalar
    class, one per derivative-slot consistency relation); all are identically
    zero mod eps^(K+1) precisely when the table solves the equation.
    """
    comps = table.components
    out = governing_residual(table.spec, comps, HarmonicSeries.time_derivative)
    if table.spec.klass == "scalar":
        out += [comps[l].time_derivative() - comps[l + 1] for l in range(len(comps) - 1)]
    return out
