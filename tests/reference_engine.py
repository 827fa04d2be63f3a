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
from rgperturb.poly import HarmonicSeries, resolve_shift


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
