"""A modular oracle: the original ODE, checked in plain integer arithmetic mod p.

The sympy oracle (test_oracle.py) reaches K <= 3 only; this one reaches the
depths where `verify` decides PASS by the Lie-derivative conditions.  Each
coefficient of the table is mapped to F_p, p = 2^62 - 87, a prime with
p = 1 mod 4, so that i is a square root of -1 in F_p.  The amplitudes and the
parameters are put at random points of F_p; eps, t and the harmonics stay
symbolic.  A series is a map (harmonic m, eps-order a) -> the coefficient list
of its polynomial in t, so y = sum c * eps^a * t^n * e^{imt}.

The class's original equation, with V read term by term from the spec,

    semisimple: y_j' = i m_j y_j + eps V_j(y)
    nilpotent:  y_j' = i g y_j + y_{j+1} + eps V_j(y)   (y_j = E^g * table)
    scalar:     prod_r (d/dt - i m_r)^{n_r} y = eps V(y, y', y'', ...)

must hold mod eps^(K+1); for the scalar class V's derivative states are
taken here from slot 0, and each slot l+1 of the table must also be the
t-derivative of slot l.  The engine builds each table as the Lie series
exp(tL) of its t-free part, L = sum_k F_k d/dA_k, so the same point also
checks (F), dP/dt = L P for every entry, with the table's own RG field F
read term by term.  No engine arithmetic is shared: products,
derivatives and sums are plain `int` operations mod p.  A nonzero residual
of degree D in the random values vanishes at the point with probability at
most D/p (Schwartz, J. ACM 27 (1980); Zippel, EUROSAM 1979).  A p that
divides a denominator is an error, never a silent skip.
"""

import functools
import random
from fractions import Fraction

import pytest

from rgperturb.checks import corrupt_table, random_spec
from rgperturb.demos import load_builtin
from rgperturb.engine import expand_table
from rgperturb.gaussrat import GaussianRational
from rgperturb.renorm import derive_rg

P = 2 ** 62 - 87


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_minus_one(p: int) -> int:
    """i in F_p: g^((p-1)/4) for the least quadratic non-residue g."""
    g = 2
    while pow(g, (p - 1) // 2, p) != p - 1:
        g += 1
    return pow(g, (p - 1) // 4, p)


class DenominatorError(ArithmeticError):
    pass


class Field:
    """F_p with its i."""

    def __init__(self, p: int):
        self.p = p
        self.i = sqrt_minus_one(p)
        self._inverses = {}  # d -> 1/d in F_p

    def gaussian(self, c: GaussianRational) -> int:
        """(a + b*i)/d in F_p; d is the lcm of the denominators of re and im."""
        p, d = self.p, c.d
        if d % p == 0:
            q = c.re if c.re.denominator % p == 0 else c.im
            raise DenominatorError(f"p = {p} divides the denominator of {q}")
        inv = self._inverses.get(d)
        if inv is None:
            inv = self._inverses[d] = pow(d, -1, p)
        return (c.a + self.i * c.b) * inv % p


# -- series: {(m, a): [c_0, c_1, ...]}, the t-polynomial at harmonic m, eps^a --

def add_into(out, key, coeffs, p):
    acc = out.setdefault(key, [])
    if len(acc) < len(coeffs):
        acc.extend([0] * (len(coeffs) - len(acc)))
    for n, c in enumerate(coeffs):
        acc[n] = (acc[n] + c) % p


def combine(p, *terms):
    """sum of factor * series over (factor, series) pairs."""
    out = {}
    for factor, series in terms:
        for key, coeffs in series.items():
            add_into(out, key, [factor * c % p for c in coeffs], p)
    return out


def multiply(x, y, K, p):
    out = {}
    for (m1, a1), c1 in x.items():
        for (m2, a2), c2 in y.items():
            if a1 + a2 > K:
                continue
            prod = [0] * (len(c1) + len(c2) - 1)
            for n1, u in enumerate(c1):
                if u:
                    for n2, v in enumerate(c2):
                        prod[n1 + n2] += u * v
            add_into(out, (m1 + m2, a1 + a2), [c % p for c in prod], p)
    return out


def ddt(x, field):
    """d/dt of c * eps^a * t^n * e^{imt} is c * (n t^(n-1) + i m t^n) * eps^a * e^{imt}."""
    p, out = field.p, {}
    for (m, a), coeffs in x.items():
        d = [(n + 1) * c % p for n, c in enumerate(coeffs[1:])] + [0]
        im = field.i * m % p
        add_into(out, (m, a), [(u + im * c) % p for u, c in zip(d, coeffs)], p)
    return out


def is_zero(x) -> bool:
    return not any(any(coeffs) for coeffs in x.values())


def nonzero_count(x) -> int:
    return sum(1 for coeffs in x.values() for c in coeffs if c)


# -- the table and V at the random point --------------------------------------------

def point(ctx, field, seed) -> dict:
    """A random value of F_p for each amplitude and parameter."""
    rng = random.Random(seed)
    return {name: rng.randrange(1, field.p) for name in (*ctx.amplitudes, *ctx.params)}


def monomial_value(names, exps, values, p) -> int:
    v = 1
    for name, k in zip(names, exps):
        if k:
            v = v * pow(values[name], k, p) % p
    return v


def component_series(table, j, values, field, gauge=0):
    """Component j of the table at the point, as a series; harmonics shifted by `gauge`."""
    ctx, p = table.ctx, field.p
    out = {}
    for m, poly in table.components[j].entries.items():
        for e, c in poly.terms.items():
            eps, t, s, amps, params = ctx.split(e)
            assert s == 0, "a secular table has no s"
            coeffs = [0] * (t + 1)
            coeffs[t] = field.gaussian(c) * monomial_value(
                (*ctx.amplitudes, *ctx.params), (*amps, *params), values, p) % p
            add_into(out, (m + gauge, eps), coeffs, p)
    return out


def forcing(vp, states, values, field, K):
    """eps * V(states) mod eps^(K+1), V's terms read from the spec."""
    vctx, p = vp.ctx, field.p
    powers = {}

    def state_power(se):
        if se not in powers:
            acc = {(0, 0): [1]}
            for y, k in zip(states, se):
                for _ in range(k):
                    acc = multiply(acc, y, K - 1, p)
            powers[se] = acc
        return powers[se]

    out = {}
    for l, poly in vp.entries.items():
        for e, c in poly.terms.items():
            eps, t, s, se, params = vctx.split(e)
            assert s == 0, "V has no s"
            if eps + 1 > K:
                continue
            coeffs = [0] * (t + 1)
            coeffs[t] = field.gaussian(c) * monomial_value(vctx.params, params, values, p) % p
            for key, prod in multiply({(l, eps + 1): coeffs}, state_power(se), K, p).items():
                add_into(out, key, prod, p)
    return out


def residuals(table, field, seed) -> list:
    """The naive residual of the table's class, one series per equation or slot relation."""
    spec, ctx, K, p = table.spec, table.ctx, table.order, field.p
    values = point(ctx, field, seed)
    minus_i = (-field.i) % p
    if spec.klass == "semisimple":
        ys = [component_series(table, j, values, field) for j in range(spec.n_states)]
        return [combine(p, (1, ddt(y, field)), (minus_i * m % p, y),
                        (p - 1, forcing(vp, ys, values, field, K)))
                for y, m, vp in zip(ys, spec.modes, spec.v_polys)]
    if spec.klass == "nilpotent":
        g = spec.block_mode
        ys = [component_series(table, j, values, field, g) for j in range(spec.n_states)]
        above = ys[1:] + [{}]
        return [combine(p, (1, ddt(y, field)), (minus_i * g % p, y), (p - 1, z),
                        (p - 1, forcing(vp, ys, values, field, K)))
                for y, z, vp in zip(ys, above, spec.v_polys)]
    if spec.klass == "scalar":
        slots = [component_series(table, l, values, field) for l in range(spec.n_states)]
        derivs = [slots[0]]
        while len(derivs) < spec.n_states:
            derivs.append(ddt(derivs[-1], field))
        lhs = slots[0]
        for m_r, n_r in spec.factors:
            for _ in range(n_r):
                lhs = combine(p, (1, ddt(lhs, field)), (minus_i * m_r % p, lhs))
        out = [combine(p, (1, lhs), (p - 1, forcing(spec.v_polys[0], derivs, values, field, K)))]
        return out + [combine(p, (1, ddt(slots[l], field)), (p - 1, slots[l + 1]))
                      for l in range(spec.n_states - 1)]
    raise AssertionError(f"no modular oracle for class {spec.klass!r}")


def flow_residuals(table, fields, field, seed) -> list:
    """(F): dP/dt - L P for every entry of every component, L = sum_k F_k d/dA_k.

    dP/dt differentiates the coefficient polynomial in t alone.  A term
    c eps^a t^n A^alpha of an entry gives n c eps^a t^(n-1) A^alpha to dP/dt
    and alpha_k c eps^a t^n A^alpha / A_k times F_k to L P, each at the
    point; F_k is read term by term and is free of t.
    """
    ctx, K, p = table.ctx, table.order, field.p
    values = point(ctx, field, seed)
    names = (*ctx.amplitudes, *ctx.params)
    inverse = [pow(values[a], -1, p) for a in ctx.amplitudes]
    fs = []
    for f in fields:
        layers = {}
        for e, c in f.terms.items():
            eps, t, s, amps, params = ctx.split(e)
            assert t == 0 and s == 0, "an RG field has no t or s"
            v = field.gaussian(c) * monomial_value(names, (*amps, *params), values, p)
            layers[eps] = (layers.get(eps, 0) + v) % p
        fs.append(layers)
    out = []
    for comp in table.components:
        flat = {}  # (m, eps-order, t-degree) -> coefficient
        for m, poly in comp.entries.items():
            for e, c in poly.terms.items():
                eps, t, s, amps, params = ctx.split(e)
                v = field.gaussian(c) * monomial_value(names, (*amps, *params), values, p) % p
                if t:
                    key = (m, eps, t - 1)
                    flat[key] = (flat.get(key, 0) + t * v) % p
                for k, f in enumerate(fs):
                    if amps[k]:
                        w = v * amps[k] * inverse[k] % p
                        for b, fb in f.items():
                            if eps + b <= K:
                                key = (m, eps + b, t)
                                flat[key] = (flat.get(key, 0) - w * fb) % p
        res = {}
        for (m, eps, t), v in flat.items():
            coeffs = [0] * (t + 1)
            coeffs[t] = v
            add_into(res, (m, eps), coeffs, p)
        out.append(res)
    return out


FIELD = Field(P)
# the built-ins at depth (ex_cd up to K=16, ex_bt K=6, ex_third K=8), where
# the engine's sums of products accumulate the most terms per key; three
# random specs at order 4 add a nilpotent gauge mode g != 0 and a scalar
# equation with two factors
CASES = ["ex_cd-8", "ex_cd-12", "ex_cd-16", "ex_bt-4", "ex_bt-6", "ex_third-4", "ex_third-8",
         "random-semisimple-1-4", "random-nilpotent-1-4", "random-scalar-6-4"]
# (F) at the depths where the tables are Lie series of the t-free solve
FLOW_CASES = ["ex_cd-16", "ex_bt-6", "ex_third-8", "random-nilpotent-1-4", "random-scalar-6-4"]


@functools.cache
def table_of(case):
    *name, order = case.split("-")
    if name[0] == "random":
        spec = random_spec(name[1], int(name[2]), int(order))
    else:
        spec = load_builtin(name[0], int(order))
    return expand_table(spec, label=case)


def test_the_field_has_i():
    assert P % 4 == 1 and is_prime(P)
    assert FIELD.i * FIELD.i % P == P - 1
    assert is_prime(13) and not is_prime(91)


def test_a_denominator_divisible_by_p_is_reported():
    small = Field(13)
    assert small.gaussian(GaussianRational(Fraction(1, 2), Fraction(1, 2))) == 7 * (1 + small.i) % 13
    with pytest.raises(DenominatorError, match="divides the denominator of 1/13"):
        small.gaussian(GaussianRational(Fraction(1, 13)))


def test_the_cases_cover_the_gauge_and_two_factors():
    assert table_of("random-nilpotent-1-4").spec.block_mode != 0
    assert len(table_of("random-scalar-6-4").spec.factors) == 2


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_table_solves_the_ode_mod_p(case, seed):
    res = residuals(table_of(case), FIELD, seed)
    assert all(is_zero(r) for r in res), [nonzero_count(r) for r in res]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_corrupted_table_fails_mod_p(case, seed):
    res = residuals(corrupt_table(table_of(case)), FIELD, seed)
    assert sum(nonzero_count(r) for r in res) > 0


@pytest.mark.parametrize("case", FLOW_CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_table_follows_its_rg_flow_mod_p(case, seed):
    table = table_of(case)
    res = flow_residuals(table, derive_rg(table).fields, FIELD, seed)
    assert all(is_zero(r) for r in res), [nonzero_count(r) for r in res]


@pytest.mark.parametrize("case", FLOW_CASES)
def test_corrupted_table_leaves_its_flow_mod_p(case):
    table = corrupt_table(table_of(case))
    res = flow_residuals(table, derive_rg(table).fields, FIELD, 0)
    assert sum(nonzero_count(r) for r in res) > 0
