import json

import pytest

from rgperturb.checks import random_spec
from rgperturb.demos import load_builtin
from rgperturb.poly import EPS, HarmonicSeries, from_expression, hs_pow
from rgperturb.systems import parse_spec
from rgperturb.engine import (
    ForcingLayers,
    eval_vpoly_hs,
    expand_table,
    expand_semisimple,
    expand_nilpotent,
    expand_scalar,
    gauge_reduce_nilpotent,
    gauge_reduce_semisimple,
    table_residuals,
)


def make_spec(**doc):
    return parse_spec(json.dumps(doc))


@pytest.fixture(scope="module")
def cd_table():
    spec = make_spec(
        **{
            "class": "semisimple",
            "linear_part": [1, -1],
            "V": ["y1*y2 + E^-1*y2", "y1*y2 + E*y1"],
            "order": 5,
        }
    )
    return expand_semisimple(spec)


class TestSemisimple:
    def test_first_order_entries(self, cd_table):
        ctx = cd_table.ctx
        assert cd_table.entry(0, 0).eps_coeff(1) == from_expression(ctx, "i*A1*A2")
        assert cd_table.entry(0, -2).eps_coeff(1) == from_expression(ctx, "i*A2/3")
        assert cd_table.entry(1, 0).eps_coeff(1) == from_expression(ctx, "-i*A1*A2")
        assert cd_table.entry(1, 2).eps_coeff(1) == from_expression(ctx, "-i*A1/3")

    def test_second_order_resonant(self, cd_table):
        ctx = cd_table.ctx
        expected = from_expression(ctx, "-1/3*i*A1*t*(3*A1*A2+1)")
        assert cd_table.entry(0, 1).eps_coeff(2) == expected

    def test_unperturbed_layer(self, cd_table):
        ctx = cd_table.ctx
        assert cd_table.entry(0, 1).eps_coeff(0) == ctx.var("A1")
        assert cd_table.entry(1, -1).eps_coeff(0) == ctx.var("A2")
        for (j, m), d in cd_table.min_orders().items():
            if (j, m) not in ((0, 1), (1, -1)):
                assert d >= 1

    def test_resonant_normalization(self, cd_table):
        # no t-constant term at any eps-order >= 1 in the resonant coefficients
        for j, m in cd_table.resonant:
            p = cd_table.entry(j, m)
            for k in range(1, cd_table.order + 1):
                layer = p.eps_coeff(k)
                assert layer.coeff_power("t", 0).is_zero()

    def test_harmonic_reach_grows_with_order(self, cd_table):
        # V moves harmonics by at most 2 per eps order here, so the minimal
        # eps-order diverges along |m|
        for (j, m), d in cd_table.min_orders().items():
            assert d >= (abs(m) - 1) / 2

    def test_minimal_order_diverges_for_builtins(self):
        # per-example instantiation of the harmonic-decay property: the
        # minimal eps-order of P_{j,m} grows at least linearly in |m|
        from rgperturb.demos import load_builtin

        bounds = {
            "ex_cd": lambda m: (abs(m) - 1) / 2,
            "ex_oscillators": lambda m: abs(m) - 1,
            "ex_bt": lambda m: abs(m),
            "ex_third": lambda m: abs(m),
            "ex_scalar1": lambda m: 0 if m == 0 else float("inf"),
        }
        for name, bound in bounds.items():
            table = expand_table(load_builtin(name))
            for (j, m), d in table.min_orders().items():
                assert d >= bound(m), (name, j, m, d)

    def test_zero_forcing(self):
        spec = make_spec(
            **{"class": "semisimple", "linear_part": [2, 0, -1], "V": ["0", "0", "0"], "order": 4}
        )
        table = expand_semisimple(spec)
        for j, m in ((0, 2), (1, 0), (2, -1)):
            assert table.entry(j, m) == table.ctx.var(f"A{j + 1}")
            assert table.components[j].support() == [m]

    def test_residual_zero(self, cd_table):
        for res in table_residuals(cd_table):
            assert res.is_zero()

    def test_gauge_reduction_shifts_harmonics(self):
        spec = make_spec(
            **{
                "class": "semisimple",
                "linear_part": [1, -1],
                "V": ["y1*y2 + E^-1*y2", "y1*y2 + E*y1"],
                "order": 3,
            }
        )
        table = expand_semisimple(spec)
        reduced = expand_semisimple(gauge_reduce_semisimple(spec))
        for j in range(2):
            mj = spec.modes[j]
            shifted = {m - mj: p for m, p in table.components[j].entries.items()}
            assert shifted == reduced.components[j].entries


class TestExampleCDGolden:
    """The reference secular-coefficient table for the two-dimensional example."""

    REFERENCE = {
        -3: "-A2^2*eps^2/12"
            " + 1/432*A2^2*eps^4*(18*A1*A2^2 - 72*i*A1*A2*t + 12*A1*A2 - 72*A1 - 24*i*t - 1)",
        -2: "i*A2*eps/3"
            " - 1/54*i*A2*eps^3*(9*A1*A2^2 - 18*i*A1*A2*t - 18*A1*A2 - 6*i*t - 2)",
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

    def test_component_one_matches(self, cd_table):
        ctx = cd_table.ctx
        for m, src in self.REFERENCE.items():
            assert cd_table.entry(0, m).trunc(4) == from_expression(ctx, src), f"m={m}"

    def test_component_two_by_symmetry(self, cd_table):
        swap = {"A1": "A2", "A2": "A1"}
        support = set(cd_table.components[1].entries)
        support |= {-m for m in cd_table.components[0].entries}
        for m in support:
            lhs = cd_table.entry(1, m)
            rhs = cd_table.entry(0, -m).rename(swap).conj_coeffs()
            assert lhs == rhs, f"m={m}"


@pytest.fixture(scope="module")
def bt_table():
    spec = make_spec(
        **{
            "class": "nilpotent",
            "linear_part": {"mode": 0, "size": 2},
            "V": ["2*alpha*y1*cos(t)", "beta*y2*(mu + y1^2 + 2*cos(t))"],
            "params": ["alpha", "beta", "mu"],
            "order": 3,
        }
    )
    return expand_nilpotent(spec)


@pytest.fixture(scope="module")
def third_table():
    spec = make_spec(
        **{"class": "scalar", "linear_part": [[0, 3]], "V": ["2*y*y''*cos(t)"], "order": 4}
    )
    return expand_scalar(spec)


class TestNilpotent:
    def test_zero_forcing_chain(self):
        spec = make_spec(
            **{
                "class": "nilpotent",
                "linear_part": {"mode": 0, "size": 3},
                "V": ["0", "0", "0"],
                "order": 2,
            }
        )
        table = expand_nilpotent(spec)
        ctx = table.ctx
        assert table.entry(0, 0) == from_expression(ctx, "A1 + A2*t + A3*t^2/2")
        assert table.entry(1, 0) == from_expression(ctx, "A2 + A3*t")
        assert table.entry(2, 0) == ctx.var("A3")

    def test_bogdanov_takens_first_order(self, bt_table):
        ctx = bt_table.ctx
        p20 = "A2 + eps*beta*A2*t/3*(3*A1^2 + 3*mu + 3*A1*A2*t + A2^2*t^2)"
        p10 = "A1 + A2*t + eps*beta*A2*t^2/12*(6*A1^2 + 6*mu + 4*A1*A2*t + A2^2*t^2)"
        assert bt_table.entry(1, 0).trunc(1) == from_expression(ctx, p20)
        assert bt_table.entry(0, 0).trunc(1) == from_expression(ctx, p10)

    def test_normalization_at_zero(self, bt_table):
        for j in range(2):
            p = bt_table.entry(j, 0)
            for k in range(1, 4):
                assert p.eps_coeff(k).coeff_power("t", 0).is_zero()

    def test_residual_zero(self, bt_table):
        for res in table_residuals(bt_table):
            assert res.is_zero()

    def test_gauge_mode_reduction(self):
        # a nonzero block eigenvalue is removed internally; the reduced table
        # still has resonance at harmonic 0 and solves the reduced equation
        spec = make_spec(
            **{
                "class": "nilpotent",
                "linear_part": {"mode": 1, "size": 2},
                "V": ["y2*E", "y1^2"],
                "order": 2,
            }
        )
        table = expand_nilpotent(spec)
        assert table.gauge_mode == 1
        assert table.resonant == [(0, 0), (1, 0)]
        for res in table_residuals(table):
            assert res.is_zero()


class TestScalar:
    def test_zero_forcing(self):
        spec = make_spec(
            **{
                "class": "scalar",
                "linear_part": [[1, 2], [-1, 1]],
                "V": ["0"],
                "order": 3,
            }
        )
        table = expand_scalar(spec)
        ctx = table.ctx
        assert table.components[0].support() == [-1, 1]
        assert table.entry(0, 1) == from_expression(ctx, "A1_1 + A1_2*t")
        assert table.entry(0, -1) == ctx.var("A2_1")

    def test_riccati_flow_series(self):
        # dy/dt = eps (y^2 - 1); oracle: Taylor expansion of the quadrature
        # relation  int_A^P dz/(z^2-1) = eps t
        spec = make_spec(
            **{"class": "scalar", "linear_part": [[0, 1]], "V": ["y^2 - 1"], "order": 3}
        )
        table = expand_scalar(spec)
        ctx = table.ctx
        expected = from_expression(
            ctx,
            "A1 + eps*t*(A1^2-1) + eps^2*t^2*A1*(A1^2-1)"
            " + eps^3*t^3*(3*A1^4 - 4*A1^2 + 1)/3",
        )
        assert table.entry(0, 0) == expected

    def test_third_order_reference_eps2(self, third_table):
        ctx = third_table.ctx
        expected = from_expression(
            ctx,
            "A1 + A2*t + A3*t^2/2 + eps^2*A3*t^3/120*("
            "40*A2*(A1 - 3*A3) + 10*(A2^2 + A1*A3 - 3*A3^2)*t + 6*A2*A3*t^2 + A3^2*t^3)",
        )
        assert third_table.entry(0, 0).trunc(2) == expected

    def test_divisibility_normalization(self, third_table):
        p = third_table.entry(0, 0)
        for k in range(1, 5):
            layer = p.eps_coeff(k)
            for l in range(3):
                assert layer.coeff_power("t", l).is_zero()

    def test_derivative_slots_consistent(self, third_table):
        for l in range(2):
            d = third_table.components[l].time_derivative()
            assert d == third_table.components[l + 1]

    def test_residual_zero(self, third_table):
        for res in table_residuals(third_table):
            assert res.is_zero()

    def test_observed_components_is_slot_zero(self, third_table, cd_table):
        # the derivative slots follow from y; a system observes every component
        assert len(third_table.components) == 3
        assert third_table.observed_components() == third_table.components[:1]
        assert cd_table.observed_components() == cd_table.components


class TestDispatch:
    def test_expand_table_routes(self):
        spec = make_spec(
            **{"class": "scalar", "linear_part": [[0, 1]], "V": ["y^2 - 1"], "order": 2}
        )
        assert expand_table(spec).spec.klass == "scalar"


class TestForcingLayers:
    """The engine's relaxed forcing cache against the reference evaluator.

    At every order k the cache sees the table truncated at eps^(k-1), as in
    the engine's loop, and must return the eps^(k-1) layer that
    `eval_vpoly_hs` computes from scratch on the same truncation.
    """

    @staticmethod
    def assert_matches_reference(spec):
        table = expand_table(spec)
        ctx = table.ctx
        v_polys = spec.v_polys
        if spec.klass == "nilpotent":
            v_polys = [gauge_reduce_nilpotent(vp, spec.block_mode) for vp in v_polys]
        forcing = ForcingLayers(v_polys, ctx)
        for k in range(1, table.order + 1):
            comps = [c.map_entries(lambda p: p.trunc(k - 1)) for c in table.components]
            want = [eval_vpoly_hs(vp, comps, ctx, k - 1).eps_coeff(k - 1) for vp in v_polys]
            assert forcing.next_layer(comps) == want, f"{spec.v_srcs} at order {k}"

    @pytest.mark.parametrize("name,order", [
        ("ex_cd", 10), ("ex_bt", 4), ("ex_third", 5), ("ex_oscillators", 4), ("ex_scalar1", 9),
    ])
    def test_builtins(self, name, order):
        self.assert_matches_reference(load_builtin(name, order))

    @pytest.mark.parametrize("klass", ["semisimple", "nilpotent", "scalar"])
    def test_random_specs(self, klass):
        for seed in range(30):
            doc = random_spec(klass, seed).to_document()
            doc["order"] = 4
            self.assert_matches_reference(parse_spec(json.dumps(doc)))

    def test_state_degree_beyond_the_recursion_limit(self):
        # y1^1000 peels a chain of 1000 powers; none of them may recurse
        self.assert_matches_reference(make_spec(**{
            "class": "semisimple", "linear_part": [1, -1], "order": 3,
            "V": ["y1^1000 + y2", "y1*y2 + E*y1"],
        }))


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


class TestEvalVpoly:
    """`eval_vpoly_hs` with its shared state products against the per-term evaluator.

    One cache serves every component at one truncation, as in
    `governing_residual`.
    """

    @staticmethod
    def assert_matches_reference(spec):
        table = expand_table(spec)
        ctx, K = table.ctx, table.order
        v_polys = spec.v_polys
        if spec.klass == "nilpotent":
            v_polys = [gauge_reduce_nilpotent(vp, spec.block_mode) for vp in v_polys]
        for trunc in sorted({max(K - 1, 0), K // 2}):
            cache = {}
            for vp in v_polys:
                want = reference_eval_vpoly_hs(vp, table.components, ctx, trunc)
                got = eval_vpoly_hs(vp, table.components, ctx, trunc, cache)
                assert got == want, f"{spec.v_srcs} at trunc {trunc}"

    @pytest.mark.parametrize("name,order", [
        ("ex_cd", 8), ("ex_bt", 4), ("ex_third", 5), ("ex_oscillators", 4), ("ex_scalar1", 8),
    ])
    def test_builtins(self, name, order):
        self.assert_matches_reference(load_builtin(name, order))

    @pytest.mark.parametrize("klass", ["semisimple", "nilpotent", "scalar"])
    def test_random_specs(self, klass):
        for seed in range(30):
            self.assert_matches_reference(random_spec(klass, seed, 4))

