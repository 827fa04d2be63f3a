"""The engine for the three ODE classes: the RG field, the renormalized
expansion and the secular table.

The secular table P_{j,m}(eps, t, A) of a class is the unique formal
solution y_j = sum_m P_{j,m} e^{imt} whose coefficients satisfy the class's
normalization (the resonant coefficient of a semisimple component has no
t-constant term at eps-order >= 1; the nilpotent harmonic-0 coefficients
vanish at t = 0 for orders >= 1, after the e^{imt} gauge reduction of a
nonzero block eigenvalue; the scalar resonant coefficient at m_r is
divisible by t^{n_r} at every order >= 1).  The renormalized amplitudes are
its resonant coefficients (their t-derivatives for the scalar class), and
they are the flow of the RG field F: P(t, A) = Y(Phi_t(A)) = exp(tL) Y, with
L = sum_k F_k d/dA_k and Y = P(0, A), the renormalized expansion
(Groebner's Lie series; DeVille, Harkin, Holzer, Josic and Kaper, Physica
D 237 (2008), for the normal-form side).  So the table is fixed by Y and F,
and `solve` computes them directly, with no t anywhere.

Put y = sum_m Y_m(A) e^{imt} with dA/dt = F(A) into the equation: d/dt acts
on harmonic m as L + im.  Order by order in eps, with Y^(0) and F^(0) the
unperturbed solution and flow, the order-k unknowns Y^(k), F^(k) enter
linearly.  The driver takes the residual E of each equation along the flow
with the order-k unknowns set to 0: the Lie terms
sum_{a=1}^{k-1} L_{F^(a)} Y^(k-a) against eps^k times the eps^(k-1) layer
of V on Y, summed as one sum of products in `ForcingLayers`.  One linear
step per class then solves for the unknowns (the homological equation of
the normal-form theory):

* semisimple, y_j' = i m_j y_j + eps V_j -- F^(0) = 0; F_j^(k) = -E_{j,m_j},
  and Y_{j,m}^(k) = -E_{j,m} / (i(m - m_j)) for m != m_j.  Y_{j,m_j} = A_j
  exactly, which is the normalization.
* nilpotent, y_j' = y_{j+1} + eps V_j after the gauge reduction -- F^(0) is
  the chain shift L0 = sum_j A_{j+1} d/dA_j; F_j^(k) = -E_{j,0}, and for
  m != 0 the chain is solved from the top down,
  Y_{j,m}^(k) = (L0 + im)^(-1) (Y_{j+1,m}^(k) - E_{j,m}), where
  (L0 + im)^(-1) = sum_s (-1)^s (im)^(-s-1) L0^s is finite because L0 is
  nilpotent on polynomials (`poly.resolve_chain`).
* scalar, prod_r (d/dt - i m_r)^{n_r} y = eps V(y, y', ...) -- the
  unknowns are the derivative slots C_l = y^(l) of its companion system.
  F^(0) is the shift L0 along each factor's amplitudes A_{r,0}, A_{r,1},
  ...; Y_{m_r} = A_{r,0} exactly, F_{(r,l)} = A_{r,l+1} for l < n_r - 1,
  and only G_r = F_{(r,n_r-1)} gets corrections.  Eliminating the slots
  gives q(L0 + im) Y_m^(k) = H_m, with q(x) = prod_r (x - i m_r)^{n_r} and
  H the slot residuals combined by q's coefficients; the variation of
  q(L + im) in F^(k), applied to Y_{m_r}^(0) = A_{r,0}, is
  prod_{r' != r} (L0 + i(m_r - m_r'))^{n_r'} G_r^(k).  So
  G_r^(k) = prod_{r' != r} (L0 + i(m_r - m_r'))^(-n_r') H_{m_r}, and every
  other harmonic gets Y_m^(k) = prod_r (L0 + i(m - m_r))^(-n_r) H_m.

`expand_table` then builds the table as the Lie series
sum_n t^n/n! L^n Y (`poly.lie_series`), stopping at the first L^n Y that is zero
mod eps^(K+1): a finite sum, since F^(0) is zero or a chain shift and every
other part of F raises the eps-order.  The scalar class's derivative slots
are the t-derivatives of slot 0 (`_derivative_chain`).

A semisimple spec may prove a conjugate pairing (`conjugate_pairing`): an
involution pi of the components with m_pi(j) = -m_j and V_pi(j) =
sigma(V_j), sigma conjugating the coefficients, swapping the states by pi
and sending E to E^-1 (parameters untouched).  The solution then has
P[pi(j), -m] = sigma(P[j, m]) with the amplitudes swapped, so the driver
solves and Lie-expands one component per pair and writes its partner as the
sigma image; a component with pi(j) = j, or every component of an unpaired
spec, is its own representative.

`governing_residual` substitutes series back into the class's equation,
with plain d/dt (the naive table) or d/dt along the RG flow (the
renormalized expansion).  Each equation's residual is one `poly.SeriesSum`:
the time-derivative terms, the linear part as products by constants, and
-eps V from `eval_vpoly_hs`, the from-scratch evaluator on whole series, so
the residual check stays independent of `ForcingLayers`; one cache holds
each state product y^se for all equations of one residual.
"""

from __future__ import annotations

from .gaussrat import GaussianRational
from .poly import (
    PolyContext,
    MultiPoly,
    HarmonicSeries,
    SeriesSum,
    hs_pow,
    lie_derivative,
    lie_series,
    resolve_chain,
    sum_of_products,
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

    def slot_residuals(self, diff_t=None) -> list:
        """For the scalar class, slot l's time derivative minus slot l+1.

        All are zero when each derivative slot is the time derivative of the
        one before; the other classes have no slots, so the list is empty.
        `diff_t`, when given, holds per slot the map m -> dP_m/dt of its
        entries, already taken.
        """
        if self.spec.klass != "scalar":
            return []
        comps = self.components
        return [comps[l].time_derivative(None if diff_t is None else diff_t[l]) - comps[l + 1]
                for l in range(len(comps) - 1)]

    def render(self) -> str:
        lines = []
        for j, comp in enumerate(self.components):
            for m in comp.support():
                lines.append(f"P[{j + 1},{m}] = {comp.entries[m].render()}")
        return "\n".join(lines)


def make_context(spec: ODESystemSpec) -> PolyContext:
    return PolyContext(spec.amplitude_names, spec.params, spec.order)


def eval_vpoly_hs(vp: HarmonicSeries, comps, total: SeriesSum, cache=None) -> None:
    """Add -eps V into `total`, the states of V bound to harmonic series.

    V's context has the states where the total's context has the
    amplitudes, one for one, so a term's exponent vector with the states
    zeroed is a monomial there.  Each term of V, of eps-order a, adds its
    monomial -- the negated coefficient, eps^(a+1) carried on its key --
    times the state product y^se mod eps^cut, cut being the total's.
    Harmonics and terms are visited in insertion order.

    `cache` maps a state exponent tuple se to y^se mod eps^cut; one cache
    may serve every component of one system of series at one cut, as in
    `governing_residual`.  y^se is built left to right from the per-state
    powers y_j^k, themselves the cached tuples with one nonzero entry.
    """
    if cache is None:
        cache = {}
    ctx = total.ctx
    trunc = total.cut - 1
    no_states = (0,) * len(ctx.amplitudes)
    one = HarmonicSeries.single(0, ctx.one())

    def state_product(se):
        p = one  # y^prefix, the states before j kept and the rest zeroed
        for j, k in enumerate(se):
            if not k:
                continue
            prefix = se[:j + 1] + no_states[j + 1:]
            q = cache.get(prefix)
            if q is None:
                if p is one:
                    q = hs_pow(comps[j], k, trunc)
                else:
                    q = p.mul(state_product(no_states[:j] + (k,) + no_states[j + 1:]), trunc)
                cache[prefix] = q
            p = q
        return p

    split = vp.ctx.split
    for l, poly in vp.entries.items():
        for e, c in poly.terms.items():
            eps, t, s, se, pe = split(e)
            if eps > trunc:
                continue
            mono = ctx.monomial(-c, (eps + 1, t, s) + no_states + pe)
            total.add_product(HarmonicSeries.single(l, mono), state_product(se))


class ForcingLayers:
    """The eps-layers of V on the table being built, each computed once.

    One object serves one `solve`; at order k it is handed the eps^(k-1)
    layer of every component and returns, per V, eps^k times the eps^(k-1)
    layer of V on the components so far.  It keeps the eps-layers y_j[a] of every component and, per
    state monomial se, the layers L(se)[0], L(se)[1], ... of y^se computed
    so far.  A power is built by repeated squaring: with an odd exponent,
    one factor of the lowest state j with an odd exponent is peeled off,
    L(se)[n] = sum_{a=0..n} y_j[a] * L(se - e_j)[n-a]; with all exponents
    even, L(se)[n] = sum_{a=0..n} L(se/2)[a] * L(se/2)[n-a], each cross pair
    taken once and doubled.  So y^se needs O(log |se|) powers, and each
    order adds only the new layers: online ("relaxed") power-series
    multiplication, van der Hoeven, J. Symb. Comp. 34 (2002).  Every layer
    is one `sum_of_products`.  `eval_vpoly_hs` remains the reference
    evaluator.
    """

    def __init__(self, v_polys, ctx: PolyContext):
        self.v_polys = v_polys
        self.ctx = ctx
        self._layers = []  # _layers[a][j]: eps^a layer of component j
        self._powers = {}  # state exponents se -> [L(se)[0], L(se)[1], ...]

    def _power(self, se: tuple, n: int) -> HarmonicSeries:
        """L(se)[n], the eps^n layer of y^se."""
        layers = self._powers.setdefault(se, [])
        while len(layers) <= n:
            layers.append(self._new_layer(se, len(layers)))
        return layers[n]

    def _new_layer(self, se: tuple, r: int) -> HarmonicSeries:
        """L(se)[r], from the layers of y_j and of the smaller powers."""
        ctx = self.ctx
        odd = [j for j, k in enumerate(se) if k & 1]
        if not odd:
            if not any(se):  # y^0 = 1
                return HarmonicSeries.single(0, ctx.one()) if not r else HarmonicSeries.zero(ctx)
            half = tuple(k >> 1 for k in se)
            pairs = [(self._power(half, a).map_entries(lambda p: p.scale(2)),
                      self._power(half, r - a)) for a in range(r // 2 + (r & 1))]
            if not r & 1:
                mid = self._power(half, r // 2)
                pairs.append((mid, mid))
            return sum_of_products(ctx, pairs)
        j = odd[0]
        rest = se[:j] + (se[j] - 1,) + se[j + 1:]
        if not any(rest):
            return self._layers[r][j]
        return sum_of_products(ctx, [(self._layers[a][j], self._power(rest, r - a))
                                     for a in range(r + 1)])

    def next_layer(self, layer, extra=None) -> list:
        """Per V, eps^k times the eps^(k-1) layer of V, at the k-th call.

        `layer[j]` is the eps^(k-1) layer of component j, eps-free.  The
        factor eps^k rides on the key of each term's coefficient monomial,
        so it costs no product.  `extra[j]`, when given, holds more
        (series, series) pairs to add into V_j's sum of products.
        """
        ctx = self.ctx
        n = len(self._layers)
        self._layers.append(layer)
        no_states = (0,) * len(ctx.amplitudes)
        out = []
        for idx, vp in enumerate(self.v_polys):
            split = vp.ctx.split
            pairs = [] if extra is None else list(extra[idx])
            for l, poly in vp.entries.items():
                for e, c in poly.terms.items():
                    a, t, s, se, pe = split(e)
                    if a > n:
                        continue
                    mono = ctx.monomial(c, (n + 1, t, s) + no_states + pe)
                    pairs.append((HarmonicSeries.single(l, mono), self._power(se, n - a)))
            out.append(sum_of_products(ctx, pairs))
        return out


def _derivative_chain(hs: HarmonicSeries, n: int, ddt=HarmonicSeries.time_derivative) -> list:
    """[hs, ddt(hs), ..., ddt^(n-1)(hs)]."""
    out = [hs]
    while len(out) < n:
        out.append(ddt(out[-1]))
    return out


def _mirror(hs: HarmonicSeries, sigma) -> HarmonicSeries:
    """sigma on a series: each entry mapped, harmonic m moved to -m."""
    return HarmonicSeries(hs.ctx, {-m: sigma(p) for m, p in hs.entries.items()})


def _swap_conj(names, partner):
    """sigma on a polynomial: swap the symbols names[j] and names[pi(j)], conjugate."""
    swap = {names[j]: names[q] for j, q in enumerate(partner) if q != j}
    return lambda p: p.rename(swap).conj_coeffs()


def conjugate_pairing(spec: ODESystemSpec) -> tuple:
    """The involution pi of the spec's proved conjugate pairing, else the identity.

    A pairing needs m_pi(j) = -m_j and V_pi(j) = sigma(V_j) for every j,
    where sigma conjugates the coefficients, swaps the states by pi and
    sends E to E^-1; the parameters are left as they are, as in
    `renorm.check_pair_symmetry`.  The formal solution then has
    P[pi(j), -m] = sigma(P[j, m]), amplitudes swapped by pi.  Each component
    is paired with the first free later one of opposite mode (a mode-0
    component with itself when there is none), and the pairing is kept only
    if every V passes.  Only semisimple specs are paired.
    """
    n = spec.n_states
    identity = tuple(range(n))
    if spec.klass != "semisimple":
        return identity
    modes = spec.modes
    partner = [None] * n
    for j in range(n):
        if partner[j] is None:
            k = next((k for k in range(j + 1, n) if partner[k] is None and modes[k] == -modes[j]),
                     j if modes[j] == 0 else None)
            if k is None:
                return identity
            partner[j], partner[k] = k, j
    sigma = _swap_conj(spec.state_names, partner)
    if any(spec.v_polys[q] != _mirror(spec.v_polys[j], sigma) for j, q in enumerate(partner)):
        return identity
    return tuple(partner)


class RGSolution:
    """The t-free solve of one spec: the renormalized expansion Y and the RG field F.

    `expansion` holds the series Y_j = sum_m Y_{j,m}(eps, A) e^{imt} of each
    observed component (for the scalar class, y alone); `fields` holds F_k,
    aligned with ctx.amplitudes; `partner` is the conjugate pairing the
    solve used (`conjugate_pairing`; the identity when there is none).
    """

    def __init__(self, spec, ctx, expansion, fields, partner):
        self.spec = spec
        self.ctx = ctx
        self.expansion = expansion
        self.fields = fields
        self.partner = partner


def solve(spec: ODESystemSpec) -> RGSolution:
    """Y and F order by order in eps, with no t anywhere (module docstring).

    The unknowns are the components C_j (y_j for a system, the derivative
    slots y^(l) for the scalar class) and F.  At order k the residual of
    each component's equation along the flow, with the order-k unknowns
    set to 0, is E_j = sum_{a=1}^{k-1} L_{F^(a)} C_j^(k-a) - [eps V_j]^(k);
    `ForcingLayers` sums -E_j as one sum of products, and the class's
    `step` turns it into C^(k) and F^(k).  Of a conjugate pair only the
    representative j < pi(j) is solved; its partner is its sigma image.
    """
    ctx = make_context(spec)
    names = ctx.amplitudes
    if spec.klass == "semisimple":
        comps0, chain, v_polys, step = _semisimple_step(spec, ctx)
    elif spec.klass == "nilpotent":
        comps0, chain, v_polys, step = _nilpotent_step(spec, ctx)
    elif spec.klass == "scalar":
        comps0, chain, v_polys, step = _scalar_step(spec, ctx)
    else:
        raise SpecError(f"no expansion engine for class {spec.klass!r}")
    partner = conjugate_pairing(spec)
    reps = [j for j, q in enumerate(partner) if j <= q]
    sigma = _swap_conj(names, partner)
    zero = ctx.zero()
    links = dict(chain)
    F = [[ctx.var(links[a]) if a in links else zero for a in names]]  # F[a][i]: eps^a layer of F_i
    C = [comps0]                                # C[b][j]: the eps^b layer of C_j
    minus_f = [None]  # minus_f[a]: (i, -F^(a)_i at harmonic 0) for each nonzero F^(a)_i, a >= 1
    dC = {}           # (b, j, i) -> dC^(b)_j/dA_i, built when first needed
    forcing = ForcingLayers([v_polys[j] for j in reps], ctx)

    def d(b, j, i):
        key = b, j, i
        x = dC.get(key)
        if x is None:
            a = names[i]
            x = dC[key] = C[b][j].map_entries(lambda p: p.diff(a))
        return x

    for k in range(1, ctx.order + 1):
        lie = [[(d(k - a, j, i), mf) for a in range(1, k) for i, mf in minus_f[a]]
               for j in reps]
        states = [c.eps_coeff(k - 1) for c in C[k - 1]]
        rhs = dict(zip(reps, forcing.next_layer(states, lie)))
        f_k = [zero] * len(names)
        c_k = [None] * len(partner)
        step(rhs, f_k, c_k)
        for j in reps:
            q = partner[j]
            if q != j:
                f_k[q] = sigma(f_k[j])
                c_k[q] = _mirror(c_k[j], sigma)
        F.append(f_k)
        C.append(c_k)
        minus_f.append([(i, HarmonicSeries.single(0, -f)) for i, f in enumerate(f_k) if f.packed])
    fields = [sum((layer[i] for layer in F[1:]), F[0][i]) for i in range(len(names))]
    observed = 1 if spec.klass == "scalar" else len(partner)
    expansion = [sum((layer[j] for layer in C[1:]), C[0][j]) for j in range(observed)]
    return RGSolution(spec, ctx, expansion, fields, partner[:observed])


def _semisimple_step(spec, ctx):
    """y_j' = i m_j y_j + eps V_j: F_j = -E_{j,m_j}, Y_{j,m} = -E_{j,m}/(i(m - m_j))."""
    modes = spec.modes
    comps0 = [HarmonicSeries.single(m, ctx.var(a)) for m, a in zip(modes, ctx.amplitudes)]

    def step(rhs, f_k, c_k):
        for j, r in rhs.items():
            m_j = modes[j]
            f_k[j] = r.get(m_j)
            c_k[j] = HarmonicSeries(ctx, {m: resolve_chain(GaussianRational(0, m - m_j), p)
                                          for m, p in r.entries.items() if m != m_j})

    return comps0, (), spec.v_polys, step


def _nilpotent_step(spec, ctx):
    """y_j' = y_{j+1} + eps V_j after the gauge reduction; F^(0) is the chain shift L0.

    F_j = -E_{j,0}, and for m != 0, down the chain from the top,
    Y_{j,m} = (L0 + im)^(-1) (Y_{j+1,m} - E_{j,m}).
    """
    names = ctx.amplitudes
    n = len(names)
    comps0 = [HarmonicSeries.single(0, ctx.var(a)) for a in names]
    chain = tuple(zip(names, names[1:]))
    v_polys = [gauge_reduce_nilpotent(vp, spec.block_mode) for vp in spec.v_polys]

    def step(rhs, f_k, c_k):
        new = [{} for _ in range(n)]
        for m in sorted({m for r in rhs.values() for m in r.entries if m}):
            above = ctx.zero()
            for j in range(n - 1, -1, -1):
                above = new[j][m] = resolve_chain(GaussianRational(0, m), rhs[j].get(m) + above,
                                                  chain)
        for j in range(n):
            f_k[j] = rhs[j].get(0)
            c_k[j] = HarmonicSeries(ctx, new[j])

    return comps0, chain, v_polys, step


def _char_poly(factors) -> list:
    """The coefficients of q(x) = prod_r (x - i m_r)^{n_r}, lowest first."""
    q = [(1, 0)]  # Gaussian integers
    for m_r, n_r in factors:
        for _ in range(n_r):  # times x - i m_r
            q = [(a + m_r * d, b - m_r * c0) for (a, b), (c0, d) in zip([(0, 0)] + q, q + [(0, 0)])]
    return [GaussianRational(a, b) for a, b in q]


def _scalar_step(spec, ctx):
    """prod_r (d/dt - i m_r)^{n_r} y = eps V, as the slots C_l = y^(l) of its companion system.

    Along the flow, with X = L + im on harmonic m and q(x) = prod_r
    (x - i m_r)^{n_r} = sum_l c_l x^l, the slots satisfy X C_l = C_{l+1}
    (l < N-1) and X C_{N-1} + sum_{l<N} c_l C_l = eps V.  F^(0) is the shift
    L0 along each factor's amplitudes A_{r,0}, A_{r,1}, ...; Y_{m_r} = A_{r,0}
    exactly, and of F only G_r = F_{(r, n_r-1)} has corrections.  With
    X0 = L0 + im and B_l = -E_l + L_{F^(k)} C_l^(0), the slot equations
    give C_l = X0^l C_0 - sum_{p<l} X0^(l-1-p) B_p and, eliminated,
    q(X0) C_0 = H := sum_l h_l(X0) B_l with h_l(x) = sum_{i>l} c_i x^(i-1-l).
    So G_r = prod_{r' != r} (L0 + i(m_r - m_r'))^(-n_r') H_{m_r}, and every
    other harmonic gets Y_m = prod_r (L0 + i(m - m_r))^(-n_r) H_m.
    """
    names = ctx.amplitudes
    factors = spec.factors
    N = spec.n_states
    chain, tops, y0 = [], {}, {}
    pos = 0
    for m_r, n_r in factors:
        chain += [(names[pos + l], names[pos + l + 1]) for l in range(n_r - 1)]
        tops[m_r] = pos + n_r - 1
        y0[m_r] = ctx.var(names[pos])
        pos += n_r
    c = _char_poly(factors)

    links = dict(chain)
    f0 = [ctx.var(links[a]) if a in links else ctx.zero() for a in names]  # L0's field

    def x0(p, m):  # (L0 + im) p
        q = p.scale(GaussianRational(0, m))
        return lie_derivative(p, f0) + q if chain and p.packed else q

    def resolve(p, m, skip=None):  # prod_{r != skip} (L0 + i(m - m_r))^(-n_r) p
        for m_r, n_r in factors:
            if m_r != skip:
                for _ in range(n_r):
                    p = resolve_chain(GaussianRational(0, m - m_r), p, chain)
        return p

    comps0 = _derivative_chain(HarmonicSeries(ctx, y0), N,
                               lambda hs: HarmonicSeries(ctx, {m: x0(p, m) for m, p in hs.entries.items()}))
    # d C^(0)_l / dA_{top of the factor at m}: a constant, C^(0)_l being linear
    top_coeff = [{m: comps0[l].get(m).diff(names[i]).packed.get(0) for m, i in tops.items()}
                 for l in range(N)]
    v_polys = [HarmonicSeries.zero(spec.v_polys[0].ctx)] * (N - 1) + [spec.v_polys[0]]

    def step(rhs, f_k, c_k):
        slots = [{} for _ in range(N)]
        for m in sorted({m for r in rhs.values() for m in r.entries} | set(y0)):
            rows = [rhs[l].get(m) for l in range(N)]
            h = ctx.zero()
            for i in range(N - 1, -1, -1):  # H by Horner in X0
                g = ctx.zero()
                for p in range(N - i):
                    if rows[p].packed:
                        g = g + rows[p].scale(c[p + 1 + i])
                h = g + x0(h, m)
            if m in tops:  # Y_{m_r} = A_{r,0} exactly; H_{m_r} fixes G_r
                top = f_k[tops[m]] = resolve(h, m, skip=m)
                h = ctx.zero()
            else:
                h = resolve(h, m)
            for l in range(N):  # C_{l+1} = X0 C_l - B_l
                slots[l][m] = h
                if l + 1 < N:
                    h = x0(h, m) - rows[l]
                    if m in tops and top_coeff[l][m]:
                        h = h + top.scale(top_coeff[l][m])
        for l in range(N):
            c_k[l] = HarmonicSeries(ctx, slots[l])

    return comps0, chain, v_polys, step


def _lie_table(sol: RGSolution) -> list:
    """The table's components, each entry the Lie series exp(tL) of its Y entry.

    Of a conjugate pair only the representative is expanded; the partner is
    its sigma image.  For the scalar class slot 0 is expanded and the other
    slots are its t-derivatives.
    """
    partner = sol.partner
    reps = [j for j, q in enumerate(partner) if j <= q]
    sigma = _swap_conj(sol.ctx.amplitudes, partner)
    comps = [None] * len(sol.expansion)
    for j, p in zip(reps, lie_series([sol.expansion[j] for j in reps], sol.fields)):
        comps[j] = p
        if partner[j] != j:
            comps[partner[j]] = _mirror(p, sigma)
    if sol.spec.klass == "scalar":
        return _derivative_chain(comps[0], sol.spec.n_states)
    return comps


def _resonant(spec) -> list:
    if spec.klass == "semisimple":
        return list(enumerate(spec.modes))
    if spec.klass == "nilpotent":
        return [(j, 0) for j in range(spec.block_size)]
    return [(0, m_r) for m_r, _ in spec.factors]


def _expand(spec: ODESystemSpec, klass: str, label: str) -> SecularTable:
    if spec.klass != klass:
        raise SpecError(f"expand_{klass} needs a {klass} spec")
    sol = solve(spec)
    return SecularTable(spec, sol.ctx, _lie_table(sol), _resonant(spec), label=label)


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
    return _expand(spec, "semisimple", label)


def expand_nilpotent(spec: ODESystemSpec, label="") -> SecularTable:
    return _expand(spec, "nilpotent", label)


def expand_scalar(spec: ODESystemSpec, label="") -> SecularTable:
    return _expand(spec, "scalar", label)


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

def governing_residual(spec: ODESystemSpec, comps, fields=()) -> list:
    """Substitute harmonic series into the class's governing equation.

    d/dt is plain without `fields`, for the naive table, and along the flow
    dA/dt = F(A) with the RG field, for the renormalized expansion.  For the
    scalar class `comps` holds either every derivative slot or slot 0 alone,
    whose derivatives are then built with the same d/dt, and q(d/dt) y is
    sum_l c_l d^l y/dt^l (`_char_poly`).  Each residual is one `SeriesSum`,
    each key normalised once.  Returns one HarmonicSeries per equation; all
    are identically zero mod eps^(K+1) precisely when the series solve the
    equation.
    """
    ctx = comps[0].ctx
    v_polys = spec.v_polys
    if spec.klass == "nilpotent":
        v_polys = [gauge_reduce_nilpotent(vp, spec.block_mode) for vp in v_polys]
    cache = {}

    def ddt(hs):
        total = SeriesSum(ctx)
        total.add_time_derivative(hs, fields)
        return total.series()

    def residual(j, top, shift=0, linear=()):
        """(d/dt - i*shift) top + sum of c*x over the (x, c) of `linear`, - eps V_j."""
        total = SeriesSum(ctx)
        total.add_time_derivative(top, fields, shift)
        for x, c in linear:
            total.add_scaled(x, c)
        if ctx.order:
            eval_vpoly_hs(v_polys[j], comps, total, cache)
        return total.series()

    if spec.klass == "semisimple":
        return [residual(j, comps[j], m) for j, m in enumerate(spec.modes)]
    if spec.klass == "nilpotent":
        minus_one = GaussianRational(-1)  # y_j' = y_{j+1} + eps V_j
        return [residual(j, comps[j], linear=[(x, minus_one) for x in comps[j + 1:j + 2]])
                for j in range(spec.block_size)]
    if spec.klass == "scalar":
        derivatives = _derivative_chain(comps[0], spec.n_states, ddt)
        if len(comps) == 1:
            comps = derivatives
        return [residual(0, derivatives[-1], linear=zip(derivatives, _char_poly(spec.factors)))]
    raise SpecError(f"no governing equation for class {spec.klass!r}")


def table_residuals(table: SecularTable) -> list:
    """Substitute the table back into its governing equation.

    Returns one HarmonicSeries per equation component (plus, for the scalar
    class, one per derivative-slot consistency relation); all are identically
    zero mod eps^(K+1) precisely when the table solves the equation.
    """
    residuals = governing_residual(table.spec, table.components)
    return residuals + table.slot_residuals()
