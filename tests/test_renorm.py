import json
from fractions import Fraction

import pytest

from rgperturb.gaussrat import gq
from rgperturb.poly import from_expression
from rgperturb.systems import SpecError, parse_spec
from rgperturb.engine import expand_table
from rgperturb.renorm import (
    renormalized_amplitudes,
    derive_rg,
    renormalized_expansion,
    invert_amplitudes,
    polar_transform,
    polar_projection,
    TrigSeries,
    PolarPairingError,
    COS,
    SIN,
)


def make_table(**doc):
    return expand_table(parse_spec(json.dumps(doc)))


@pytest.fixture(scope="module")
def cd5():
    return make_table(
        **{
            "class": "semisimple",
            "linear_part": [1, -1],
            "V": ["y1*y2 + E^-1*y2", "y1*y2 + E*y1"],
            "order": 5,
        }
    )


@pytest.fixture(scope="module")
def cd6():
    return make_table(
        **{
            "class": "semisimple",
            "linear_part": [1, -1],
            "V": ["y1*y2 + E^-1*y2", "y1*y2 + E*y1"],
            "order": 6,
        }
    )


@pytest.fixture(scope="module")
def bt3():
    return make_table(
        **{
            "class": "nilpotent",
            "linear_part": {"mode": 0, "size": 2},
            "V": ["2*alpha*y1*cos(t)", "beta*y2*(mu + y1^2 + 2*cos(t))"],
            "params": ["alpha", "beta", "mu"],
            "order": 3,
        }
    )


@pytest.fixture(scope="module")
def osc4():
    return make_table(
        **{
            "class": "oscillator",
            "masses": [1, 1],
            "V": ["-4*q2*p1", "-4*q1*p2"],
            "order": 4,
        }
    )


@pytest.fixture(scope="module")
def third4():
    return make_table(
        **{"class": "scalar", "linear_part": [[0, 3]], "V": ["2*y*y''*cos(t)"], "order": 4}
    )


def trig(npairs, entries, nparams=0):
    """Build a TrigSeries from {(eps, rexps, m, w, kind): Fraction}."""
    ts = TrigSeries(npairs)
    for (eps, rexps, m, w, kind), q in entries.items():
        ts._add((eps, tuple(rexps), (0,) * nparams, m, tuple(w), kind), Fraction(q))
    return ts


def swap_pairs(ts):
    """Interchange (R1,theta1) <-> (R2,theta2) in a two-pair TrigSeries."""
    out = TrigSeries(ts.npairs)
    for (eps, (r1, r2), pe, m, (w1, w2), kind), q in ts.terms.items():
        w = (w2, w1)
        sign = next((1 if x > 0 else -1 for x in (m,) + w if x), 0)
        if sign < 0:
            m, w = -m, (-w[0], -w[1])
            if kind == SIN:
                q = -q
        out._add((eps, (r2, r1), pe, m, w, kind), q)
    return out


class TestAmplitudes:
    def test_leading_order_is_bare(self, cd5):
        amps = renormalized_amplitudes(cd5)
        ctx = cd5.ctx
        for name, p in amps.items():
            assert p.eps_coeff(0) == ctx.var(name)

    def test_reference_resonant_coefficient(self, cd5):
        amps = renormalized_amplitudes(cd5)
        ctx = cd5.ctx
        lead = from_expression(ctx, "A1 - 1/3*i*A1*eps^2*t*(3*A1*A2+1)")
        assert amps["A1"].trunc(2) == lead

    def test_scalar_amplitudes_are_derivatives(self, third4):
        amps = renormalized_amplitudes(third4)
        p0 = third4.entry(0, 0)
        assert amps["A1"] == p0
        assert amps["A2"] == p0.diff_t()
        assert amps["A3"] == p0.diff_t().diff_t()


class TestRGEquation:
    def test_autonomy(self, cd5, bt3, third4):
        for table in (cd5, bt3, third4):
            rg = derive_rg(table)
            for f in rg.fields:
                assert f.degree("t") <= 0 and f.degree("s") <= 0

    def test_semisimple_slow_dynamics(self, cd5):
        rg = derive_rg(cd5)
        for f in rg.fields:
            assert f.is_zero() or min(e[0] for e in f.terms) >= 1

    def test_cd_rg_matches_reference(self, cd5):
        rg = derive_rg(cd5)
        ctx = cd5.ctx
        f1 = from_expression(
            ctx,
            "-i*eps^2/3*A1*(1 + 3*A1*A2)"
            " - i*eps^4/54*A1*(2 + 57*A1*A2 - 27*A1*A2^2 - 9*A1^2*A2 + 54*A1^2*A2^2)",
        )
        f2 = from_expression(
            ctx,
            "i*eps^2/3*A2*(1 + 3*A1*A2)"
            " + i*eps^4/54*A2*(2 + 57*A1*A2 - 9*A1*A2^2 - 27*A1^2*A2 + 54*A1^2*A2^2)",
        )
        assert rg.fields[0].trunc(4) == f1
        assert rg.fields[1].trunc(4) == f2

    def test_bt_rg_matches_reference(self, bt3):
        rg = derive_rg(bt3)
        ctx = bt3.ctx
        f1 = from_expression(
            ctx,
            "A2*(1 + 2*alpha*(alpha - beta)*eps^2"
            " - 8*alpha*A1*A2*(3*alpha - beta)*beta*eps^3)",
        )
        f2 = from_expression(
            ctx,
            "beta*A2*(eps*(A1^2 + mu)"
            " + 2*(alpha^2*A1^2 + alpha^2*A2^2 + 4*alpha*A2^2*beta - A2^2*beta^2)*eps^3)",
        )
        assert rg.fields[0] == f1
        assert rg.fields[1] == f2

    def test_nilpotent_chain_structure(self, bt3):
        rg = derive_rg(bt3)
        ctx = bt3.ctx
        lead = rg.fields[0] - ctx.var("A2")
        assert lead.is_zero() or min(e[0] for e in lead.terms) >= 1

    def test_scalar_chain_is_exact(self, third4):
        rg = derive_rg(third4)
        ctx = third4.ctx
        assert rg.fields[0] == ctx.var("A2")
        assert rg.fields[1] == ctx.var("A3")

    def test_scalar_forms_refused_outside_the_scalar_class(self, cd5, bt3):
        for table in (cd5, bt3):
            with pytest.raises(SpecError, match="^scalar_forms only applies to the scalar class$"):
                derive_rg(table).scalar_forms()

    def test_third_order_form_matches_reference(self, third4):
        rg = derive_rg(third4)
        ((name, n, rhs),) = rg.scalar_forms()
        assert (name, n) == ("A1", 3)
        ctx = third4.ctx
        q2 = from_expression(ctx, "eps^2*A2*A3/3*(A1 - 3*A3)")
        q4 = from_expression(
            ctx,
            "eps^4*A2*A3/192*(-32*A1^3 - 32*A1*A2^2 - 120*A1^2*A3"
            " + 924*A2^2*A3 + 5576*A1*A3^2 - 48165*A3^3)",
        )
        assert rhs == (q2 + q4).scale(6)


class TestRenormalizedExpansion:
    def test_cd_expansion_matches_reference(self, cd5):
        ren = renormalized_expansion(cd5)
        ctx = cd5.ctx
        expected_1 = {
            1: "A1",
            0: "i*eps*A1*A2",
            -2: "i*eps*A2/3",
            -1: "eps^2/12*(6*A1*A2 - 6*A1*A2^2)",
            -3: "-eps^2*A2^2/12",
            3: "-eps^2*A1^2/6",
        }
        for m, src in expected_1.items():
            assert ren.entry(0, m).trunc(2) == from_expression(ctx, src), f"m={m}"
        expected_2 = {
            -1: "A2",
            0: "-i*eps*A1*A2",
            2: "-i*eps*A1/3",
            1: "eps^2/12*(6*A1*A2 - 6*A1^2*A2)",
            3: "-eps^2*A1^2/12",
            -3: "-eps^2*A2^2/6",
        }
        for m, src in expected_2.items():
            assert ren.entry(1, m).trunc(2) == from_expression(ctx, src), f"m={m}"

    def test_secular_freeness(self, cd5, bt3, third4):
        for table in (cd5, bt3, third4):
            ren = renormalized_expansion(table)
            for comp in ren.components:
                for p in comp.entries.values():
                    assert p.degree("t") <= 0

    def test_zero_forcing(self):
        table = make_table(
            **{"class": "semisimple", "linear_part": [3, -2], "V": ["0", "0"], "order": 3}
        )
        ren = renormalized_expansion(table)
        assert ren.components[0].entries == {3: table.ctx.var("A1")}
        assert ren.components[1].entries == {-2: table.ctx.var("A2")}


class TestInversion:
    def test_leading_identity(self, cd5):
        inv = invert_amplitudes(cd5)
        for name, p in inv.items():
            assert p.eps_coeff(0) == cd5.ctx.var(name)

    def test_cd_order2(self, cd5):
        inv = invert_amplitudes(cd5)
        expected = from_expression(cd5.ctx, "A1 + 1/3*i*A1*eps^2*t*(3*A1*A2+1)")
        assert inv["A1"].trunc(2) == expected

    @pytest.mark.parametrize("fixture", ["cd5", "bt3", "third4", "osc4"])
    def test_roundtrip_both_ways(self, fixture, request):
        table = request.getfixturevalue(fixture)
        ctx = table.ctx
        amps = renormalized_amplitudes(table)
        inv = invert_amplitudes(table)
        for name in ctx.amplitudes:
            back = inv[name].substitute(amps)
            assert back == ctx.var(name), f"A = inv(amps) failed for {name}"
            forth = amps[name].substitute(inv)
            assert forth == ctx.var(name), f"amps(inv) failed for {name}"


class TestPolar:
    def test_cd_polar_matches_reference_rteq(self, cd6):
        polar = polar_transform(derive_rg(cd6), [(0, 1)])
        d_r = trig(1, {
            (4, (4,), 0, (1,), SIN): "1/3",
            (6, (4,), 0, (1,), SIN): "97/180",
            (6, (6,), 0, (1,), SIN): "175/180",
        })
        d_th = trig(1, {
            (2, (0,), 0, (0,), COS): "-1/3",
            (2, (2,), 0, (0,), COS): -1,
            (4, (0,), 0, (0,), COS): "-2/54",
            (4, (2,), 0, (0,), COS): "-57/54",
            (4, (4,), 0, (0,), COS): -1,
            (4, (3,), 0, (1,), COS): "36/54",
            (6, (0,), 0, (0,), COS): "-80/9720",
            (6, (2,), 0, (0,), COS): "-7023/9720",
            (6, (4,), 0, (0,), COS): "-32913/9720",
            (6, (6,), 0, (0,), COS): "-21870/9720",
            (6, (3,), 0, (1,), COS): "11610/9720",
            (6, (5,), 0, (1,), COS): "28890/9720",
        })
        assert polar.d_radius[0] == d_r
        assert polar.d_theta[0] == d_th

    def test_oscillator_polar_matches_reference(self, osc4):
        polar = polar_transform(derive_rg(osc4), [(0, 1), (2, 3)])
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
        assert polar.d_radius[0].trunc(4) == d_r1
        assert polar.d_theta[0].trunc(4) == d_th1
        # the second pair follows by interchanging (R1,theta1) <-> (R2,theta2)
        assert polar.d_radius[1] == swap_pairs(polar.d_radius[0])
        assert polar.d_theta[1] == swap_pairs(polar.d_theta[0])

    def test_linear_rotation(self):
        # here the RG field is -i c eps^2 A1 with real c = 1/4, a pure phase
        # drift: dR/dt = 0, dtheta/dt = -c eps^2
        table = make_table(
            **{"class": "semisimple", "linear_part": [1, -1],
               "V": ["E^-2*y2", "E^2*y1"], "order": 2}
        )
        rg = derive_rg(table)
        assert rg.fields[0] == from_expression(table.ctx, "-i*eps^2*A1/4")
        polar = polar_transform(rg, [(0, 1)])
        assert polar.d_radius[0].is_zero()
        assert polar.d_theta[0] == trig(1, {(2, (0,), 0, (0,), COS): Fraction(-1, 4)})

    def test_pairing_symmetry_violation(self):
        table = make_table(
            **{"class": "semisimple", "linear_part": [1, -1],
               "V": ["y1^2*y2", "0"], "order": 2}
        )
        rg = derive_rg(table)
        assert not rg.fields[0].is_zero()
        with pytest.raises(PolarPairingError):
            polar_transform(rg, [(0, 1)])

    def test_q1_projection_matches_reference(self, osc4):
        ren = renormalized_expansion(osc4)
        weights = [gq(0, Fraction(-1, 2)), gq(0, Fraction(1, 2)), gq(0), gq(0)]
        q1 = polar_projection(ren, weights, [(0, 1), (2, 3)])
        expected = trig(2, {
            (0, (1, 0), 1, (1, 0), SIN): 1,
            (1, (1, 1), 0, (1, -1), SIN): 2,
            (1, (1, 1), 2, (1, 1), SIN): "2/3",
            (2, (1, 2), 1, (1, 0), SIN): "4/6",
            (2, (2, 1), 1, (2, -1), SIN): 1,
            (2, (2, 1), 1, (0, 1), SIN): "-8/6",
            (2, (2, 1), 3, (2, 1), SIN): "1/6",
            (2, (1, 2), 3, (1, 2), SIN): "2/6",
        })
        assert q1.trunc(2) == expected

    def test_rendering(self, cd6):
        polar = polar_transform(derive_rg(cd6), [(0, 1)])
        text = polar.render()
        assert "dR/dt = 1/3*eps^4*R^4*sin(theta)" in text
        assert "dtheta/dt = -1/3*eps^2" in text
