import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from reference_engine import (
    reference_eval_vpoly_hs,
    reference_governing_residual,
    reference_table,
)
from rgperturb.checks import corrupt_table, random_spec, run_all_checks
from rgperturb.demos import builtin_document, load_builtin
from rgperturb.poly import HarmonicSeries, SeriesSum, from_expression, lie_derivative
from rgperturb.systems import parse_spec
from rgperturb.expressions import render_forcing
from rgperturb.engine import (
    ForcingLayers,
    SecularTable,
    _shift_carrier,
    conjugate_pairing,
    eval_vpoly_hs,
    expand_table,
    expand_semisimple,
    expand_nilpotent,
    expand_scalar,
    gauge_reduce_nilpotent,
    governing_residual,
    solve,
    table_residuals,
)
from rgperturb.renorm import derive_rg, renormalized_expansion


def make_spec(**doc):
    return parse_spec(json.dumps(doc))


def min_orders(table) -> dict:
    """(component, harmonic) -> the smallest eps-exponent of that entry."""
    return {(j, m): min(e[0] for e in p.terms)
            for j, comp in enumerate(table.components) for m, p in comp.entries.items()}


def gauge_reduce_semisimple(spec):
    """The equivalent M=0 system for y_j -> e^{-i m_j t} y_j.

    Expanding it gives a table related to the original by the harmonic shift
    m -> m + m_j per component: a cross-check of the engine.
    """
    modes = spec.modes
    v_polys = [_shift_carrier(vp, modes, m) for vp, m in zip(spec.v_polys, modes)]
    return dataclasses.replace(spec, v_srcs=tuple(render_forcing(vp) for vp in v_polys),
                               v_polys=v_polys, modes=(0,) * len(modes))


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
        for (j, m), d in min_orders(cd_table).items():
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
        for (j, m), d in min_orders(cd_table).items():
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
            for (j, m), d in min_orders(table).items():
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
        assert table.spec.block_mode == 1
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

    At every order k the cache is handed the eps^(k-1) layer of the table,
    as in the engine's loop, and must return eps^k times the eps^(k-1) layer
    of V that `eval_vpoly_hs` computes from scratch on the table truncated
    at eps^(k-1).
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
            epsk = ctx.var("eps", k)
            want = [reference_eval_vpoly_hs(vp, comps, ctx, k - 1).eps_coeff(k - 1)
                    .map_entries(lambda p: p * epsk) for vp in v_polys]
            layer = [c.eps_coeff(k - 1) for c in comps]
            assert forcing.next_layer(layer) == want, f"{spec.v_srcs} at order {k}"

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
        # y1^1000, built by repeated squaring from about 2*log2(1000) powers
        self.assert_matches_reference(make_spec(**{
            "class": "semisimple", "linear_part": [1, -1], "order": 3,
            "V": ["y1^1000 + y2", "y1*y2 + E*y1"],
        }))


class TestEvalVpoly:
    """`eval_vpoly_hs` with its shared state products against the per-term evaluator.

    One cache serves every component at one truncation, as in
    `governing_residual`; the total it adds -eps V into has cut trunc + 1.
    """

    @staticmethod
    def assert_matches_reference(spec):
        table = expand_table(spec)
        ctx, K = table.ctx, table.order
        minus_eps = -ctx.var("eps")
        v_polys = spec.v_polys
        if spec.klass == "nilpotent":
            v_polys = [gauge_reduce_nilpotent(vp, spec.block_mode) for vp in v_polys]
        for trunc in sorted({max(K - 1, 0), K // 2}):
            cache = {}
            for vp in v_polys:
                want = reference_eval_vpoly_hs(vp, table.components, ctx, trunc)
                total = SeriesSum(ctx, trunc + 1)
                eval_vpoly_hs(vp, table.components, total, cache)
                got = total.series()
                assert got == want.map_entries(lambda p: p * minus_eps), \
                    f"{spec.v_srcs} at trunc {trunc}"

    @pytest.mark.parametrize("name,order", [
        ("ex_cd", 8), ("ex_bt", 4), ("ex_third", 5), ("ex_oscillators", 4), ("ex_scalar1", 8),
    ])
    def test_builtins(self, name, order):
        self.assert_matches_reference(load_builtin(name, order))

    @pytest.mark.parametrize("klass", ["semisimple", "nilpotent", "scalar"])
    def test_random_specs(self, klass):
        for seed in range(30):
            self.assert_matches_reference(random_spec(klass, seed, 4))



# -- the t-free engine against the t-dependent recursion it replaced -----------

def assert_matches_reference(spec):
    """Table, RG field and renormalized expansion equal the reference engine's."""
    ref = reference_table(spec)
    table = expand_table(spec)
    assert table.components == ref.components, spec.v_srcs
    want = derive_rg(ref).fields
    assert derive_rg(table).fields == want, spec.v_srcs
    sol = solve(spec)
    assert sol.fields == want, spec.v_srcs
    assert sol.expansion == renormalized_expansion(ref).components, spec.v_srcs


COEFFS = ["1", "(-1)", "2", "1/2", "(-3/2)", "i", "(-i/3)", "(1 + i)", "(2 - i/2)"]


@st.composite
def forcing_src(draw, states):
    """A random V: one to three terms, each a coefficient, maybe eps, maybe
    E^{+-1}, and a product of up to two states."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [draw(st.sampled_from(COEFFS))]
        factors += draw(st.sampled_from([[], [], ["eps"]]))
        factors += draw(st.sampled_from([[], ["E"], ["E^-1"]]))
        factors += draw(st.lists(st.sampled_from(states), max_size=2))
        terms.append("*".join(factors))
    return " + ".join(terms)


@st.composite
def spec_documents(draw):
    """Specs of each class: repeated semisimple modes, nilpotent gauge modes
    0 and +-1, a scalar double root, two simple roots or one."""
    klass = draw(st.sampled_from(["semisimple", "nilpotent", "scalar"]))
    order = draw(st.integers(1, 4))
    if klass == "semisimple":
        modes = draw(st.lists(st.sampled_from([-2, -1, 0, 1, 1, -1]), min_size=1, max_size=3))
        states = [f"y{j + 1}" for j in range(len(modes))]
        linear = modes
    elif klass == "nilpotent":
        size = draw(st.integers(1, 3))
        states = [f"y{j + 1}" for j in range(size)]
        linear = {"mode": draw(st.sampled_from([0, 1, -1])), "size": size}
    else:
        linear = draw(st.sampled_from([
            [[0, 2]], [[1, 2]], [[-1, 2]], [[0, 1]], [[1, 1]],
            [[0, 1], [1, 1]], [[1, 1], [-1, 1]], [[-1, 1], [0, 1]],
        ]))
        states = ["y" + "'" * l for l in range(sum(n for _, n in linear))]
    n_eq = 1 if klass == "scalar" else len(states)
    V = [draw(forcing_src(states)) for _ in range(n_eq)]
    return {"class": klass, "linear_part": linear, "V": V, "order": order}


class TestReferenceEngine:
    """`expand_table`, the RG field and the solve's Y and F against the
    t-dependent recursion of `reference_engine`."""

    @pytest.mark.parametrize("name,orders", [
        ("ex_cd", range(8, 15)), ("ex_bt", range(3, 6)), ("ex_third", range(4, 8)),
    ])
    def test_builtins_at_depth(self, name, orders):
        for order in orders:
            assert_matches_reference(load_builtin(name, order))

    @pytest.mark.parametrize("name", ["ex_oscillators", "ex_scalar1"])
    def test_other_builtins(self, name):
        for order in range(0, 6):
            assert_matches_reference(load_builtin(name, order))

    @settings(max_examples=150, deadline=None)
    @given(spec_documents())
    def test_random_specs(self, doc):
        assert_matches_reference(parse_spec(json.dumps(doc)))

    def test_the_drawn_specs_reach_every_case(self):
        # the cases the strategy must reach, as specs it can draw
        for doc in (
            {"class": "semisimple", "linear_part": [1, 1, -1], "order": 3,
             "V": ["y2*y3 + E^-1*y1", "i*y1*y3", "y1*y2 + eps*E"]},
            {"class": "nilpotent", "linear_part": {"mode": -1, "size": 2}, "order": 3,
             "V": ["y2*E + y1^2", "(1 + i)*y1*y2"]},
            {"class": "scalar", "linear_part": [[1, 2]], "order": 3, "V": ["y*y' + E^-1*y"]},
            {"class": "scalar", "linear_part": [[1, 1], [-1, 1]], "order": 3,
             "V": ["y^2 + 1/2*E*y'"]},
        ):
            assert_matches_reference(parse_spec(json.dumps(doc)))


def assert_residuals_match_reference(table):
    """Naive and renormalized residuals equal the composition the accumulator replaced."""
    spec = table.spec
    rg, ren = derive_rg(table), renormalized_expansion(table)

    def along_flow(hs):
        return hs.time_derivative() + hs.map_entries(lambda p: lie_derivative(p, rg.fields))

    assert governing_residual(spec, table.components) == reference_governing_residual(
        spec, table.components, HarmonicSeries.time_derivative), spec.v_srcs
    assert governing_residual(spec, ren.components, rg.fields) == reference_governing_residual(
        spec, ren.components, along_flow), spec.v_srcs


class TestGoverningResidual:
    """`governing_residual`, one accumulator per equation, against the composition
    of separately normalised series (`reference_governing_residual`), on
    passing tables and on their `corrupt_table`, whose residuals are nonzero."""

    @pytest.mark.parametrize("name", ["ex_cd", "ex_bt", "ex_third", "ex_oscillators", "ex_scalar1"])
    def test_builtins(self, name):
        table = expand_table(load_builtin(name))
        bad = corrupt_table(table)
        assert_residuals_match_reference(table)
        assert_residuals_match_reference(bad)
        assert any(not r.is_zero() for r in table_residuals(bad))

    @settings(max_examples=100, deadline=None)
    @given(spec_documents())
    def test_random_specs(self, doc):
        table = expand_table(parse_spec(json.dumps(doc)))
        assert_residuals_match_reference(table)
        assert_residuals_match_reference(corrupt_table(table))


class TestPairing:
    """The half-per-pair path: taken only on a proved pairing, same table either way."""

    def test_builtin_pairings(self):
        assert conjugate_pairing(load_builtin("ex_cd")) == (1, 0)
        assert conjugate_pairing(load_builtin("ex_oscillators")) == (1, 0, 3, 2)
        assert conjugate_pairing(load_builtin("ex_bt")) == (0, 1)
        assert conjugate_pairing(load_builtin("ex_third")) == (0, 1, 2)

    def test_a_mode_zero_component_pairs_with_itself(self):
        spec = make_spec(**{"class": "semisimple", "linear_part": [1, 0, -1], "order": 4,
                            "V": ["y1*y2 + E^-1*y3", "y1*y3 + y2^2", "y3*y2 + E*y1"]})
        assert conjugate_pairing(spec) == (2, 1, 0)
        assert solve(spec).partner == (2, 1, 0)
        assert_matches_reference(spec)

    def test_a_changed_coefficient_is_not_paired(self):
        doc = json.loads(builtin_document("ex_cd", 6))
        doc["V"][1] = "y1*y2 + 2*E*y1"
        spec = parse_spec(json.dumps(doc))
        assert conjugate_pairing(spec) == (0, 1)
        assert_matches_reference(spec)

    def test_a_corrupted_mirror_half_fails_verify(self):
        table = expand_table(load_builtin("ex_cd", 5))
        assert all(r.ok for r in run_all_checks(table))
        ctx = table.ctx
        comps = list(table.components)
        comps[1] = comps[1] + HarmonicSeries.single(-1, ctx.var("eps") * ctx.var("t"))
        bad = SecularTable(table.spec, ctx, comps, table.resonant, label="mirror-corrupted")
        failed = [r.name for r in run_all_checks(bad) if not r.ok]
        assert "check_residual" in failed and "check_functional_relation" in failed
