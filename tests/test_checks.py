import json

import pytest
from hypothesis import example, given, settings, strategies as st

from rgperturb.systems import parse_spec
from rgperturb.demos import load_builtin
from rgperturb.engine import SecularTable, expand_table, table_residuals
from rgperturb.poly import HarmonicSeries
from rgperturb.renorm import derive_rg, renormalized_expansion
from rgperturb.checks import (
    check_functional_relation,
    check_group_property,
    check_no_secular,
    check_residual,
    check_inversion,
    check_homogeneity,
    check_autonomous_reduction,
    corrupt_table,
    follows_rg_flow,
    random_spec,
    renormalized_residuals,
    run_all_checks,
)


def make_table(label="", **doc):
    return expand_table(parse_spec(json.dumps(doc)), label=label)


@pytest.fixture(scope="module")
def cd4():
    return make_table(
        label="ex_cd",
        **{
            "class": "semisimple",
            "linear_part": [1, -1],
            "V": ["y1*y2 + E^-1*y2", "y1*y2 + E*y1"],
            "order": 4,
        },
    )


@pytest.fixture(scope="module")
def osc3():
    return make_table(
        label="ex_oscillators",
        **{
            "class": "oscillator",
            "masses": [1, 1],
            "V": ["-4*q2*p1", "-4*q1*p2"],
            "order": 3,
        },
    )


@pytest.fixture(scope="module")
def bt3():
    return make_table(
        label="ex_bt",
        **{
            "class": "nilpotent",
            "linear_part": {"mode": 0, "size": 2},
            "V": ["2*alpha*y1*cos(t)", "beta*y2*(mu + y1^2 + 2*cos(t))"],
            "params": ["alpha", "beta", "mu"],
            "order": 3,
        },
    )


@pytest.fixture(scope="module")
def scalar1():
    return make_table(
        label="ex_scalar1",
        **{"class": "scalar", "linear_part": [[0, 1]], "V": ["y^2 - 1"], "order": 6},
    )


class TestFunctionalRelation:
    def test_cd_passes(self, cd4):
        assert check_functional_relation(cd4).passed

    def test_oscillators_pass(self, osc3):
        assert check_functional_relation(osc3).passed

    def test_bt_passes(self, bt3):
        assert check_functional_relation(bt3).passed

    def test_corrupted_table_fails(self, cd4):
        report = check_functional_relation(corrupt_table(cd4))
        assert not report.passed
        assert "monomial" in report.detail

    def test_report_line_format(self, cd4):
        line = check_functional_relation(cd4).line()
        assert line.startswith("PASS check_functional_relation [ex_cd K=4")


class TestGroupProperty:
    def test_quadrature_flow_group_law(self, scalar1):
        # V = y^2 - 1 has the Moebius flow P0 = (A ch - sh)/(ch - A sh);
        # its composition law is matrix multiplication of [[ch,-sh],[-sh,ch]]
        assert check_group_property(scalar1).passed

    def test_bt_passes(self, bt3):
        assert check_group_property(bt3).passed


class TestNoSecular:
    def test_renormalized_is_clean(self, cd4):
        assert check_no_secular(renormalized_expansion(cd4), "ex_cd").passed

    def test_raw_table_has_secular_terms(self, cd4):
        from rgperturb.renorm import RenExpansion

        raw = RenExpansion(cd4.ctx, cd4.components)
        report = check_no_secular(raw, "ex_cd-raw")
        assert not report.passed


class TestResidualAndInversion:
    @pytest.mark.parametrize("fixture", ["cd4", "osc3", "bt3", "scalar1"])
    def test_residuals(self, fixture, request):
        table = request.getfixturevalue(fixture)
        assert check_residual(table).passed

    @pytest.mark.parametrize("fixture", ["cd4", "osc3", "bt3", "scalar1"])
    def test_inversion(self, fixture, request):
        table = request.getfixturevalue(fixture)
        assert check_inversion(table).passed


class TestNonResonantCorruption:
    """Negative control: eps*t added to a harmonic that is not resonant."""

    @staticmethod
    def bump_non_resonant(table):
        j = table.resonant[0][0]
        comps = list(table.components)
        m = min(m for m in comps[j].entries if (j, m) not in table.resonant)
        bump = table.ctx.var("eps") * table.ctx.var("t")
        comps[j] = comps[j] + HarmonicSeries.single(m, bump)
        return SecularTable(table.spec, table.ctx, comps, table.resonant,
                            label=table.label + "#bumped")

    @pytest.mark.parametrize("name", ["ex_cd", "ex_bt", "ex_third", "ex_oscillators"])
    def test_naive_checks_catch_it(self, name):
        bad = self.bump_non_resonant(expand_table(load_builtin(name), label=name))
        assert not check_functional_relation(bad).passed
        assert not check_residual(bad).passed
        assert any(not r.is_zero() for r in table_residuals(bad))
        # the bump is a multiple of t, so it vanishes from the t=0 renormalized
        # expansion: only the naive residual sees it
        assert all(r.is_zero() for r in renormalized_residuals(bad, derive_rg(bad)))


class TestTopOrderCorruption:
    """Controls at the truncation edge: a resonant entry gains eps^K * t^k.

    A term of eps-order K reaches only the eps^0 part of its image, so these
    bumps pin the eps-cut of the grouped substitution at its edge.
    """

    @staticmethod
    def bumped(name, t_power, with_amplitude):
        table = expand_table(load_builtin(name), label=name)
        ctx = table.ctx
        bump = ctx.var("eps", ctx.order) * ctx.var("t", t_power)
        if with_amplitude:
            bump = bump * ctx.var(ctx.amplitudes[0], ctx.order + 1)
        j, m = table.resonant[0]
        comps = list(table.components)
        comps[j] = comps[j] + HarmonicSeries.single(m, bump)
        return SecularTable(table.spec, ctx, comps, table.resonant,
                            label=name + "#top")

    @pytest.mark.parametrize("name", ["ex_cd", "ex_bt"])
    @pytest.mark.parametrize("with_amplitude", [False, True])
    def test_quadratic_bump_fails(self, name, with_amplitude):
        bad = self.bumped(name, 2, with_amplitude)
        report = check_functional_relation(bad)
        assert not report.passed
        assert f"eps^{bad.ctx.order}*s^2" in report.detail
        assert not check_residual(bad).passed

    @pytest.mark.parametrize("with_amplitude", [False, True])
    def test_linear_bump_is_a_shift_of_the_amplitudes(self, with_amplitude):
        # eps^K * t * M(A) on a resonant entry shifts A_ren by eps^K * s * M(A):
        # P(t - s, A_ren) gains eps^K * ((t - s) + s) * M(A), so the relation
        # holds exactly (through the eps^0 image of M) and only the naive
        # residual sees the corruption
        bad = self.bumped("ex_cd", 1, with_amplitude)
        assert check_functional_relation(bad).passed
        assert not check_residual(bad).passed


def reference_lines(table):
    """The report lines of the reference checks, called one by one."""
    reports = [
        check_functional_relation(table),
        check_group_property(table),
        check_no_secular(renormalized_expansion(table), table.label),
        check_residual(table),
        check_inversion(table),
        check_homogeneity(table),
        check_autonomous_reduction(table),
    ]
    return [r.line() for r in reports]


def with_bump(table, j, m, bump, tag):
    comps = list(table.components)
    comps[j] = comps[j] + HarmonicSeries.single(m, bump)
    return SecularTable(table.spec, table.ctx, comps, table.resonant,
                        label=f"{table.label}#{tag}")


def shifted_amplitude(table):
    """eps*A1 on the first resonant entry: A_ren(eps, 0, A) is no longer A."""
    ctx = table.ctx
    j, m = table.resonant[0]
    return with_bump(table, j, m, ctx.var("eps") * ctx.var(ctx.amplitudes[0]), "ic")


def doubled_field_term(table):
    """The first eps>=1, t^1 term of a resonant entry doubled: one term of F changes."""
    ctx = table.ctx
    j, m = table.resonant[0]
    e, c = next((e, c) for e, c in table.entry(j, m).sorted_terms()
                if ctx.split(e)[0] >= 1 and ctx.split(e)[1] == 1)
    return with_bump(table, j, m, ctx.monomial(c, e), "field")


def bumped_slot(table):
    """A constant eps on derivative slot 1, harmonic 0 of a scalar table."""
    return with_bump(table, 1, 0, table.ctx.var("eps"), "slot")


def builtin_table(name):
    return expand_table(load_builtin(name), label=name)


# control -> (a builder of the corrupted table, whether it still follows the
# RG flow); each breaks one condition or residual the fast path relies on
CONTROLS = {
    **{f"non-resonant-{name}": (
        lambda name=name: TestNonResonantCorruption.bump_non_resonant(builtin_table(name)),
        False) for name in ("ex_cd", "ex_bt", "ex_third", "ex_oscillators")},
    **{f"initial-condition-{name}": (lambda name=name: shifted_amplitude(builtin_table(name)),
                                     False) for name in ("ex_cd", "ex_bt", "ex_third")},
    # no forcing, so F = 0 and (F) holds: only the initial condition sees it
    "initial-condition-unforced": (lambda: shifted_amplitude(make_table(
        label="free", **{"class": "semisimple", "linear_part": [1, -1],
                         "V": ["0", "0"], "order": 3})), False),
    **{f"field-term-{name}": (lambda name=name: doubled_field_term(builtin_table(name)), False)
       for name in ("ex_cd", "ex_bt")},
    # eps^K * t * M(A) keeps (F) where L's eps^0 part cannot reach M: always
    # on ex_cd (F = O(eps)), and on ex_bt (F_1 = A2 + O(eps)) only for M = 1
    **{f"top-t{k}-{name}{'-A' if amp else ''}": (
        lambda name=name, k=k, amp=amp: TestTopOrderCorruption.bumped(name, k, amp),
        k == 1 and (name == "ex_cd" or not amp))
       for name in ("ex_cd", "ex_bt") for k in (1, 2) for amp in (False, True)},
    "slot-ex_third": (lambda: bumped_slot(builtin_table("ex_third")), True),
}


class TestLieConditions:
    """`run_all_checks` decides PASS by the Lie-derivative conditions and
    falls back to the reference checks; its lines must be theirs."""

    @pytest.mark.parametrize("control", sorted(CONTROLS))
    def test_control_lines_equal_the_reference(self, control):
        build, flows = CONTROLS[control]
        bad = build()
        assert follows_rg_flow(bad, derive_rg(bad)) is flows
        lines = [r.line() for r in run_all_checks(bad)]
        assert lines == reference_lines(bad)
        assert any(line.startswith("FAIL") for line in lines)

    def test_slot_relations_are_part_of_the_fast_residual(self):
        # (F) and (G) hold and the renormalized residual (slot 0 alone) is
        # zero: only the slot relation sees the bump
        bad = bumped_slot(builtin_table("ex_third"))
        assert all(r.is_zero() for r in renormalized_residuals(bad, derive_rg(bad)))
        residual = run_all_checks(bad)[3].line()
        assert residual == ("FAIL check_residual [ex_third#slot K=4] :: "
                            "naive residual, component 2, harmonic 0: -eps")

    @settings(max_examples=60, deadline=None)
    @example(klass="semisimple", seed=0, order=None, corrupt=False)
    @example(klass="nilpotent", seed=1, order=4, corrupt=True)
    @example(klass="scalar", seed=6, order=None, corrupt=True)
    @example(klass="scalar", seed=6, order=4, corrupt=False)
    @given(klass=st.sampled_from(["semisimple", "nilpotent", "scalar"]),
           seed=st.integers(0, 999), order=st.sampled_from([None, 4]), corrupt=st.booleans())
    def test_verdicts_agree_with_the_reference(self, klass, seed, order, corrupt):
        table = expand_table(random_spec(klass, seed, order), label=f"random-{klass}-{seed}")
        if corrupt:
            table = corrupt_table(table)
        assert [r.line() for r in run_all_checks(table)] == reference_lines(table)

    def test_a_passing_table_takes_the_fast_path(self, cd4, monkeypatch):
        # a silent fallback to the reference checks would keep every line and
        # lose the gain: no substitution is built and V is evaluated once per
        # component, for the renormalized residual alone
        import rgperturb.engine as engine
        from rgperturb import poly

        built, evaluated = [], []
        substitution_init = poly.Substitution.__init__
        eval_vpoly_hs = engine.eval_vpoly_hs

        def counting_init(self, *args):
            built.append(args)
            substitution_init(self, *args)

        def counting_eval(*args, **kwargs):
            evaluated.append(args)
            return eval_vpoly_hs(*args, **kwargs)

        monkeypatch.setattr(poly.Substitution, "__init__", counting_init)
        monkeypatch.setattr(engine, "eval_vpoly_hs", counting_eval)
        reports = run_all_checks(cd4)
        assert all(r.ok for r in reports)
        assert built == []
        assert len(evaluated) == len(cd4.components) == 2


class TestHomogeneity:
    def test_autonomous_oscillators(self, osc3):
        report = check_homogeneity(osc3)
        assert report.applicable and report.passed

    def test_non_autonomous_skipped(self, cd4):
        report = check_homogeneity(cd4)
        assert not report.applicable
        assert "not applicable" in report.detail
        assert report.ok

    def test_zero_mode_autonomous(self):
        table = make_table(
            label="m0",
            **{"class": "semisimple", "linear_part": [0, 0],
               "V": ["y1^2 - y2", "y1*y2 + 1"], "order": 3},
        )
        report = check_homogeneity(table)
        assert report.applicable and report.passed
        for comp in table.components:
            assert comp.support() == [0]


class TestAutonomousReduction:
    def test_semisimple_m0(self):
        table = make_table(
            label="m0",
            **{"class": "semisimple", "linear_part": [0, 0],
               "V": ["y1^2 - y2 + eps*y1", "y1*y2 + 1"], "order": 3},
        )
        report = check_autonomous_reduction(table)
        assert report.applicable and report.passed

    def test_nilpotent_autonomous(self):
        table = make_table(
            label="nil0",
            **{"class": "nilpotent", "linear_part": {"mode": 0, "size": 2},
               "V": ["0", "y1^2"], "order": 3},
        )
        report = check_autonomous_reduction(table)
        assert report.applicable and report.passed

    def test_not_applicable_for_forced(self, cd4):
        assert not check_autonomous_reduction(cd4).applicable


class TestRandomSuite:
    @pytest.mark.parametrize("klass", ["semisimple", "nilpotent", "scalar"])
    def test_seeded_specs_pass_all_checks(self, klass, run_random_suite):
        reports = run_random_suite(klass, seeds=range(5))
        bad = [r.line() for r in reports if not r.ok]
        assert not bad, bad

    def test_determinism(self):
        a = random_spec("semisimple", 7)
        b = random_spec("semisimple", 7)
        assert a.to_document() == b.to_document()
        assert a.v_polys == b.v_polys

    def test_determinism_across_processes(self):
        # str hashes are salted per process; the generator must not depend
        # on them
        import os
        import subprocess
        import sys

        import rgperturb

        # the children must import the same rgperturb as this process,
        # whether it is installed or found through PYTHONPATH
        src_root = os.path.dirname(
            os.path.dirname(os.path.abspath(rgperturb.__file__)))
        pythonpath = os.pathsep.join(
            filter(None, (src_root, os.environ.get("PYTHONPATH"))))
        code = ("import json; from rgperturb.checks import random_spec;"
                "print(json.dumps(random_spec('nilpotent', 11).to_document(), indent=2))")
        outs = set()
        for hs in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hs, PYTHONPATH=pythonpath)
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1
        # the children built the spec this process builds under its own
        # hash seed, so two children that printed nothing cannot pass
        assert outs == {json.dumps(random_spec("nilpotent", 11).to_document(), indent=2) + "\n"}

    @pytest.mark.parametrize("klass", ["semisimple", "nilpotent", "scalar"])
    def test_requested_order_keeps_the_rest(self, klass):
        # the order is still drawn, so V and the linear part do not move
        for seed in range(30):
            drawn = random_spec(klass, seed)
            for order in (0, drawn.order, 5):
                spec = random_spec(klass, seed, order)
                doc = drawn.to_document()
                doc["order"] = order
                assert spec.to_document() == doc
                assert spec.v_polys == drawn.v_polys

    def test_distinct_seeds_differ(self):
        docs = {json.dumps(random_spec("scalar", s).to_document()) for s in range(8)}
        assert len(docs) > 1
