"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import functools
import json
from fractions import Fraction

import numpy as np
import pytest

from rgperturb.gaussrat import gq, ONE
from rgperturb.poly import from_expression
from rgperturb.systems import parse_spec
from rgperturb.demos import load_builtin, NOTES
from rgperturb.engine import expand_table
from rgperturb.renorm import (
    derive_rg,
    renormalized_expansion,
    renormalized_amplitudes,
    invert_amplitudes,
    polar_transform,
    polar_projection,
    TrigSeries,
    COS,
    SIN,
)
from rgperturb.checks import (
    run_all_checks,
    check_functional_relation,
    check_residual,
    check_autonomous_reduction,
    check_homogeneity,
    corrupt_table,
)
from rgperturb import difference as diffmod
from rgperturb.numeric import integrate_ode, simulate_conjugate_pair, sup_deviation


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num}] FAIL  {desc}")
                raise
            print(f"\n[criterion {num}] PASS  {desc}")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def tables():
    out = {}
    out["ex_cd"] = expand_table(load_builtin("ex_cd", 5), label="ex_cd")
    out["ex_cd6"] = expand_table(load_builtin("ex_cd", 6), label="ex_cd")
    out["ex_oscillators"] = expand_table(load_builtin("ex_oscillators", 4),
                                         label="ex_oscillators")
    out["ex_bt"] = expand_table(load_builtin("ex_bt", 3), label="ex_bt")
    out["ex_third"] = expand_table(load_builtin("ex_third", 4), label="ex_third")
    out["ex_scalar1"] = expand_table(load_builtin("ex_scalar1", 6), label="ex_scalar1")
    return out


def trig(npairs, entries):
    ts = TrigSeries(npairs)
    for (eps, rexps, m, w, kind), q in entries.items():
        ts._add((eps, tuple(rexps), (), m, tuple(w), kind), Fraction(q))
    return ts


CD_REFERENCE = {
    -3: "-A2^2*eps^2/12"
        " + 1/432*A2^2*eps^4*(18*A1*A2^2 - 72*i*A1*A2*t + 12*A1*A2 - 72*A1 - 24*i*t - 1)",
    -2: "i*A2*eps/3 - 1/54*i*A2*eps^3*(9*A1*A2^2 - 18*i*A1*A2*t - 18*A1*A2 - 6*i*t - 2)",
    -1: "-1/2*A1*(A2-1)*A2*eps^2"
        " + 1/36*A1*A2*eps^4*(-18*i*A1*A2^2*t - 27*A1*A2^2 + 27*A1*A2 - 6*i*A2*t - 25*A2 + 11)",
    0: "i*A1*A2*eps + 1/18*i*A1*A2*eps^3*(18*A1*A2 - 9*A1 + 11)",
    1: "A1 - 1/3*i*A1*eps^2*t*(3*A1*A2+1)"
       " - 1/54*A1*eps^4*t*(i*(54*A1^2*A2^2 - 9*A1^2*A2 - 27*A1*A2^2 + 57*A1*A2 + 2)"
       " + 3*t*(3*A1*A2+1)^2)",
    2: "1/12*i*A1^2*eps^3*(6*A1*A2 - 8*A2 + 1)",
    3: "-A1^2*eps^2/6"
       " + A1^2*eps^4*(90*A1^2*A2 + 360*i*A1*A2*t - 300*A1*A2 + 9*A1 + 120*i*t - 62)/1080",
}


@criterion(1, "golden symbolic match: reference secular table of the 2-d example, "
              "exact Gaussian rationals, plus the component symmetry")
def test_criterion_1(tables):
    table = tables["ex_cd"]
    ctx = table.ctx
    for m, src in CD_REFERENCE.items():
        assert table.entry(0, m).trunc(4) == from_expression(ctx, src), f"m={m}"
    swap = {"A1": "A2", "A2": "A1"}
    support = set(table.components[1].entries) | {-m for m in table.components[0].entries}
    for m in support:
        assert table.entry(1, m) == table.entry(0, -m).rename(swap).conj_coeffs()


@criterion(2, "golden RG matches: amplitude equations, renormalized expansions, "
              "polar forms and the recorded discrepancy arbitration")
def test_criterion_2(tables):
    # (a) 2-d example RG equation to eps^4
    cd = tables["ex_cd"]
    rg = derive_rg(cd)
    ctx = cd.ctx
    f1 = from_expression(
        ctx,
        "-i*eps^2/3*A1*(1 + 3*A1*A2)"
        " - i*eps^4/54*A1*(2 + 57*A1*A2 - 27*A1*A2^2 - 9*A1^2*A2 + 54*A1^2*A2^2)",
    )
    assert rg.fields[0].trunc(4) == f1
    # (b) renormalized expansion to eps^2
    ren = renormalized_expansion(cd)
    assert ren.entry(0, 0).trunc(2) == from_expression(ctx, "i*eps*A1*A2")
    assert ren.entry(0, -1).trunc(2) == from_expression(ctx, "eps^2/2*(A1*A2 - A1*A2^2)")
    assert ren.entry(0, 3).trunc(2) == from_expression(ctx, "-eps^2*A1^2/6")
    # (c) polar RG to eps^6
    polar = polar_transform(derive_rg(tables["ex_cd6"]), [(0, 1)])
    d_r = trig(1, {
        (4, (4,), 0, (1,), SIN): "1/3",
        (6, (4,), 0, (1,), SIN): "97/180",
        (6, (6,), 0, (1,), SIN): "175/180",
    })
    d_th = trig(1, {
        (2, (0,), 0, (0,), COS): "-1/3", (2, (2,), 0, (0,), COS): -1,
        (4, (0,), 0, (0,), COS): "-1/27", (4, (2,), 0, (0,), COS): "-19/18",
        (4, (4,), 0, (0,), COS): -1, (4, (3,), 0, (1,), COS): "2/3",
        (6, (0,), 0, (0,), COS): "-2/243", (6, (2,), 0, (0,), COS): "-7023/9720",
        (6, (4,), 0, (0,), COS): "-32913/9720", (6, (6,), 0, (0,), COS): "-9/4",
        (6, (3,), 0, (1,), COS): "43/36", (6, (5,), 0, (1,), COS): "107/36",
    })
    assert polar.d_radius[0] == d_r and polar.d_theta[0] == d_th
    # (d) Bogdanov-Takens RG display to eps^3
    bt = tables["ex_bt"]
    rg_bt = derive_rg(bt)
    assert rg_bt.fields[0] == from_expression(
        bt.ctx,
        "A2*(1 + 2*alpha*(alpha - beta)*eps^2 - 8*alpha*A1*A2*(3*alpha - beta)*beta*eps^3)",
    )
    assert rg_bt.fields[1] == from_expression(
        bt.ctx,
        "beta*A2*(eps*(A1^2 + mu)"
        " + 2*(alpha^2*A1^2 + alpha^2*A2^2 + 4*alpha*A2^2*beta - A2^2*beta^2)*eps^3)",
    )
    # (e) coupled-oscillator polar RG to eps^4
    osc = tables["ex_oscillators"]
    posc = polar_transform(derive_rg(osc), [(0, 1), (2, 3)])
    d_r1 = trig(2, {
        (2, (2, 1), 0, (1, -1), SIN): "14/3",
        (4, (4, 1), 0, (1, -1), SIN): "-70/27",
        (4, (2, 3), 0, (1, -1), SIN): "-274/27",
        (4, (3, 2), 0, (2, -2), SIN): "-43/27",
        (4, (1, 4), 0, (2, -2), SIN): "-72/27",
    })
    d_th1 = trig(2, {
        (2, (0, 2), 0, (0, 0), COS): "-4/3",
        (2, (1, 1), 0, (1, -1), COS): "2/3",
        (4, (2, 2), 0, (0, 0), COS): "-50/27",
        (4, (0, 4), 0, (0, 0), COS): "-52/27",
        (4, (3, 1), 0, (1, -1), COS): "2/27",
        (4, (1, 3), 0, (1, -1), COS): "90/27",
        (4, (2, 2), 0, (2, -2), COS): "65/27",
        (4, (0, 4), 0, (2, -2), COS): "-72/27",
    })
    assert posc.d_radius[0].trunc(4) == d_r1
    assert posc.d_theta[0].trunc(4) == d_th1
    # (f) oscillator coordinate expansion to eps^2
    q1 = polar_projection(
        renormalized_expansion(osc),
        [gq(0, Fraction(-1, 2)), gq(0, Fraction(1, 2)), gq(0), gq(0)],
        [(0, 1), (2, 3)],
    )
    q1_expected = trig(2, {
        (0, (1, 0), 1, (1, 0), SIN): 1,
        (1, (1, 1), 0, (1, -1), SIN): 2,
        (1, (1, 1), 2, (1, 1), SIN): "2/3",
        (2, (1, 2), 1, (1, 0), SIN): "2/3",
        (2, (2, 1), 1, (2, -1), SIN): 1,
        (2, (2, 1), 1, (0, 1), SIN): "-4/3",
        (2, (2, 1), 3, (2, 1), SIN): "1/6",
        (2, (1, 2), 3, (1, 2), SIN): "1/3",
    })
    assert q1.trunc(2) == q1_expected
    # (g) third-order example: reference P0 and the 6Q amplitude equation; the
    # engine confirms the -48165 coefficient and the residual check passes
    third = tables["ex_third"]
    q_poly = third.entry(0, 0).coeff_power("t", 3)
    expected_q = from_expression(
        third.ctx,
        "eps^2*A2*A3/3*(A1 - 3*A3)"
        " + eps^4*A2*A3/192*(-32*A1^3 - 32*A1*A2^2 - 120*A1^2*A3"
        " + 924*A2^2*A3 + 5576*A1*A3^2 - 48165*A3^3)",
    )
    assert q_poly == expected_q
    ((name, n, rhs),) = derive_rg(third).scalar_forms()
    assert (name, n) == ("A1", 3) and rhs == expected_q.scale(6)
    assert check_residual(third).passed
    # (h) the quadrature flow: engine series == Taylor series of the
    # quadrature closed form; the circulating variant denominator fails and
    # is recorded as a discrepancy annotation, with the engine value passing
    # the arbitration checks
    s1 = tables["ex_scalar1"]
    ctx1 = s1.ctx
    K = ctx1.order
    et = ctx1.var("eps") * ctx1.var("t")
    ch, sh = ctx1.one(), ctx1.zero()
    power, fact = ctx1.one(), 1
    for n in range(1, K + 1):
        power = power * et
        fact *= n
        term = power.scale(Fraction(1, fact))
        if n % 2 == 0:
            ch = ch + term
        else:
            sh = sh + term
    a = ctx1.var("A1")
    num = a * ch - sh
    den_good = ch - a * sh
    den_variant = a * sh + ch
    quadrature_series = num * _invert_one_plus(den_good - ctx1.one(), K)
    engine = s1.entry(0, 0)
    assert engine == quadrature_series
    variant_series = num * _invert_one_plus(den_variant - ctx1.one(), K)
    assert engine != variant_series
    assert any("paper_discrepancy" in note for note in NOTES["ex_scalar1"])
    assert check_residual(s1).passed and check_functional_relation(s1).passed


def _invert_one_plus(d, K):
    ctx = d.ctx
    geom, powd, sign = ctx.one(), ctx.one(), 1
    for _ in range(K):
        powd = powd * d
        sign = -sign
        geom = geom + (powd if sign > 0 else -powd)
    return geom


@criterion(3, "identity suite: five checks exact mod eps^(K+1) on all builtins "
              "and 20 seeded random specs per class; corrupted table fails")
def test_criterion_3(tables, run_random_suite):
    for name in ("ex_cd", "ex_oscillators", "ex_bt", "ex_third", "ex_scalar1"):
        reports = run_all_checks(tables[name])
        assert all(r.ok for r in reports), [r.line() for r in reports if not r.ok]
        names = {r.name for r in reports}
        assert {"check_functional_relation", "check_group_property",
                "check_no_secular", "check_residual", "check_inversion"} <= names
    for klass in ("semisimple", "nilpotent", "scalar"):
        reports = run_random_suite(klass, seeds=range(20))
        assert all(r.ok for r in reports), [r.line() for r in reports if not r.ok]
    negative = check_functional_relation(corrupt_table(tables["ex_cd"]))
    assert not negative.passed


@criterion(4, "difference-equation suite: g_k table, N_k constants, secular "
              "formula orders, closed form == secular mod eps^5, identity checks")
def test_criterion_4():
    table = diffmod.gk_poly(8)
    for k in range(9):
        assert table[k] == diffmod.gk_closed(k)
    assert diffmod.norm_constants(5) == [
        Fraction(1), Fraction(1, 6), Fraction(3, 40), Fraction(5, 112), Fraction(35, 1152),
    ]
    u2 = diffmod.LaurentPoly({2: ONE, -2: ONE})
    K, W = 4, 10
    ctx = diffmod.make_context(K, W)
    # eps^1 and eps^2 layers of the secular formula
    for m in (-1, 0, 2):
        p = diffmod.secular_pm(u2, m, K, W, ctx)
        expect1 = ctx.zero()
        for j in (-2, 2):
            sign = ONE if m % 2 == 0 else -ONE
            expect1 = expect1 + (ctx.var(diffmod.amp_name(m + j)) * ctx.var("t")).scale(
                Fraction(1, 2)) * ctx.const(sign)
        assert p.eps_coeff(1) == expect1
        expect2 = ctx.zero()
        for j in (-4, 0, 4):
            acc = gq(0)
            for l in (-2, 2):
                acc = acc + u2.coeff(l) * u2.coeff(-j - l)
            expect2 = expect2 + (ctx.var(diffmod.amp_name(m + j)) * ctx.var("t", 2)).scale(
                Fraction(1, 8)) * ctx.const(acc)
        assert p.eps_coeff(2) == expect2
    # closed form == secular route mod eps^5 for all |m| <= 2
    for m in range(-2, 3):
        assert diffmod.closed_form_amplitude(u2, m, K, W, ctx) == diffmod.secular_pm(
            u2, m, K, W, ctx)
    reports = diffmod.check_difference_identities(u2, 3, 8)
    assert [r.passed for r in reports] == [True, True, True], [r.line() for r in reports]


@criterion(5, "homogeneity weights for the autonomous oscillators; zero-mode "
              "autonomous RG field equals eps*V exactly")
def test_criterion_5(tables):
    report = check_homogeneity(tables["ex_oscillators"])
    assert report.applicable and report.passed
    import random as _random
    from rgperturb.checks import _coeff_src

    rng = _random.Random(2024)
    for trial in range(5):
        n = rng.randint(1, 2)
        states = [f"y{j + 1}" for j in range(n)]
        vsrcs = []
        for _ in range(n):
            terms = []
            for _ in range(rng.randint(1, 3)):
                factors = [_coeff_src(rng)]
                if rng.random() < 0.5:
                    factors.append("eps")
                for _ in range(rng.choice([0, 1, 1, 2])):
                    factors.append(rng.choice(states))
                terms.append("*".join(factors))
            vsrcs.append(" + ".join(terms))
        spec = parse_spec(json.dumps({
            "class": "semisimple", "linear_part": [0] * n, "V": vsrcs, "order": 3,
        }))
        table = expand_table(spec, label=f"m0-auto-{trial}")
        report = check_autonomous_reduction(table)
        assert report.applicable and report.passed, report.line()


@criterion(6, "numeric reproduction: conjugate symmetry < 1e-8, reconstruction "
              "error drops by >= 6 when eps halves, RK4 ratio 16 +- 2")
def test_criterion_6():
    spec = load_builtin("ex_cd", 4)
    runs = {
        eps: simulate_conjugate_pair(spec, eps, 1.3, 2.1, t_end=40.0, dt=0.01,
                                     rg_order=4, ren_order=2)
        for eps in (0.25, 0.125)
    }
    assert runs[0.25]["conjugate_deviation"] < 1e-8
    ratio = (runs[0.25]["reconstruction_deviation"]
             / runs[0.125]["reconstruction_deviation"])
    assert ratio >= 6, ratio
    control = parse_spec(json.dumps(
        {"class": "semisimple", "linear_part": [1], "V": ["0"], "order": 1}))
    y0 = np.array([1.0 + 0j])

    def err(dt):
        traj = integrate_ode(control, y0, 0.0, 2.0, dt)
        return sup_deviation(traj.component(0), np.exp(1j * np.asarray(traj.times)))

    conv = err(0.02) / err(0.01)
    assert 14 <= conv <= 18, conv


@criterion(7, "inversion roundtrips both ways mod eps^(K+1) on all builtins")
def test_criterion_7(tables):
    for name in ("ex_cd", "ex_oscillators", "ex_bt", "ex_third", "ex_scalar1"):
        table = tables[name]
        ctx = table.ctx
        amps = renormalized_amplitudes(table)
        inv = invert_amplitudes(table)
        for sym in ctx.amplitudes:
            assert inv[sym].substitute(amps) == ctx.var(sym), (name, sym)
            assert amps[sym].substitute(inv) == ctx.var(sym), (name, sym)
