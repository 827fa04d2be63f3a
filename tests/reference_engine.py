"""The t-dependent recursion that `rgperturb.engine` replaced, kept as the reference.

It builds the secular table order by order in eps with t in every entry: at
order k the eps^k increment of each component solves the class's equation
with eps^k times the eps^(k-1) layer of V as right-hand side, harmonic by
harmonic.  Each non-resonant factor of the shifted time-derivative operator
is inverted by `resolve_shift`, the closed form
P = sum_k (-1)^k c^(-k-1) d^k rhs/dt^k, and each resonant factor by
`antidiff_t`, which fixes the normalization:

* semisimple -- the resonant coefficient (component j, harmonic m_j) carries
  no t-constant term at eps-order >= 1;
* nilpotent  -- the harmonic-0 coefficients all vanish at t=0 for orders >= 1
  (after the e^{imt} gauge reduction when the block eigenvalue is nonzero);
* scalar     -- the resonant coefficient at harmonic m_r is divisible by
  t^{n_r} at every order >= 1.

It shares `ForcingLayers` with the engine and nothing of the t-free solve, so
tables, RG fields and renormalized expansions can be compared with the
engine's.

`reference_eval_vpoly_hs` (V on whole series, each term's state powers
multiplied in turn) and `reference_governing_residual` (the residual as a
composition of separately normalised series) are the references of the
engine's residual.
"""

from fractions import Fraction
from math import factorial

from rgperturb.engine import (
    ForcingLayers,
    SecularTable,
    _derivative_chain,
    gauge_reduce_nilpotent,
    make_context,
)
from rgperturb.gaussrat import GaussianRational
from rgperturb.poly import EPS, HarmonicSeries, hs_pow, resolve_shift
from rgperturb.systems import SpecError


def _invert(rhs, m, factors):
    """Polynomial P with  prod_r (d/dt + i(m - m_r))^{n_r} P = rhs."""
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


def _invert_series(layer, factors):
    return HarmonicSeries(layer.ctx, {m: _invert(p, m, factors) for m, p in layer.entries.items()})


def _free_solution(ctx, names):
    """g = sum_k A_k t^{k-1}/(k-1)!, the general solution of d^n g/dt^n = 0."""
    g = ctx.zero()
    for k, name in enumerate(names):
        g = g + (ctx.var(name) * ctx.var("t", k)).scale(Fraction(1, factorial(k)))
    return g


def _expand(spec, label, comps, v_polys, solve, resonant):
    ctx = comps[0].ctx
    forcing = ForcingLayers(v_polys, ctx)
    for k in range(1, spec.order + 1):
        step = solve(forcing.next_layer([c.eps_coeff(k - 1) for c in comps]))
        comps = [c + d for c, d in zip(comps, step)]
    return SecularTable(spec, ctx, comps, resonant, label=label)


def _semisimple(spec, label):
    ctx = make_context(spec)
    modes = spec.modes
    comps = [HarmonicSeries.single(m, ctx.var(a)) for m, a in zip(modes, spec.amplitude_names)]

    def solve(layers):
        return [_invert_series(lay, ((m, 1),)) for lay, m in zip(layers, modes)]

    return _expand(spec, label, comps, spec.v_polys, solve, list(enumerate(modes)))


def _nilpotent(spec, label):
    ctx = make_context(spec)
    n = spec.block_size
    v_polys = [gauge_reduce_nilpotent(vp, spec.block_mode) for vp in spec.v_polys]
    g = HarmonicSeries.single(0, _free_solution(ctx, spec.amplitude_names))

    def solve(layers):
        # back-substitution up the chain: P_j' + i*m*P_j = layer_j + P_{j+1}
        new = [{} for _ in range(n)]
        for m in sorted({m for lay in layers for m in lay.entries}):
            below = ctx.zero()
            for j in range(n - 1, -1, -1):
                below = new[j][m] = _invert(layers[j].get(m) + below, m, ((0, 1),))
        return [HarmonicSeries(ctx, d) for d in new]

    resonant = [(j, 0) for j in range(n)]
    return _expand(spec, label, _derivative_chain(g, n), v_polys, solve, resonant)


def _scalar(spec, label):
    ctx = make_context(spec)
    N = spec.n_states
    entries = {}
    pos = 0
    for m_r, n_r in spec.factors:
        entries[m_r] = _free_solution(ctx, spec.amplitude_names[pos:pos + n_r])
        pos += n_r
    slots = _derivative_chain(HarmonicSeries(ctx, entries), N)

    def solve(layers):
        return _derivative_chain(_invert_series(layers[0], spec.factors), N)

    resonant = [(0, m_r) for m_r, _ in spec.factors]
    return _expand(spec, label, slots, spec.v_polys, solve, resonant)


def reference_table(spec, label=""):
    """The secular table of `spec` by the t-dependent recursion."""
    build = {"semisimple": _semisimple, "nilpotent": _nilpotent, "scalar": _scalar}
    return build[spec.klass](spec, label)


def reference_eval_vpoly_hs(vp, comps, ctx, trunc):
    """The per-term evaluator: each term's monomial times each of its state powers in turn."""
    cache = {}

    def state_pow(j, e):
        key = (j, e)
        p = cache.get(key)
        if p is None:
            p = cache[key] = hs_pow(comps[j], e, trunc)
        return p

    n = len(ctx.amplitudes)
    no_states = (0,) * n
    out = HarmonicSeries.zero(ctx)
    for l, poly in vp.entries.items():
        for e, c in poly.terms.items():
            if e[EPS] > trunc:
                continue
            hs = HarmonicSeries.single(l, ctx.monomial(c, e[:3] + no_states + e[3 + n:]))
            for j, k in enumerate(e[3:3 + n]):
                if k:
                    hs = hs.mul(state_pow(j, k), trunc)
            out = out + hs
    return out


def reference_governing_residual(spec, comps, ddt):
    """The class's governing equation on harmonic series, each step its own series.

    `ddt` is the time derivative of a series (plain, or along the RG flow);
    for the scalar class `comps` holds every derivative slot or slot 0 alone,
    whose derivatives are then built with `ddt`.  The forcing is
    eps * `reference_eval_vpoly_hs` mod eps^K, and the scalar operator is N
    chained shifts (ddt - i m_r).
    """
    ctx = comps[0].ctx
    K = ctx.order
    eps = ctx.var("eps")
    v_polys = spec.v_polys
    if spec.klass == "nilpotent":
        v_polys = [gauge_reduce_nilpotent(vp, spec.block_mode) for vp in v_polys]
    if spec.klass == "scalar" and len(comps) == 1:
        comps = _derivative_chain(comps[0], spec.n_states, ddt)

    def forcing(j):
        if not K:
            return HarmonicSeries.zero(ctx)
        w = reference_eval_vpoly_hs(v_polys[j], comps, ctx, K - 1)
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
