import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rgperturb import cli
from rgperturb.checks import random_spec
from rgperturb.cli import _ratio_text, machine_json, main, table_from_machine
from rgperturb.engine import expand_table
from rgperturb.demos import load_builtin, builtin_names
from rgperturb.poly import MAX_EXP

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExpand:
    def test_builtin_cd_prints_table(self, capsys):
        code, out, _ = run(capsys, "expand", "--builtin", "ex_cd", "--order", "5")
        assert code == 0
        assert "P[1,-2] = 1/3*i*eps*A2" in out
        assert "P[1,3]" in out and "P[2,-3]" in out

    def test_builtin_bt_low_order(self, capsys):
        code, out, _ = run(capsys, "expand", "--builtin", "ex_bt", "--order", "1")
        assert code == 0
        assert "P[1,0] = A1 + t*A2" in out
        assert "P[2,0]" in out

    def test_zero_forcing_only_unperturbed(self, capsys, tmp_path):
        doc = {"class": "semisimple", "linear_part": [1, -1], "V": ["0", "0"], "order": 3}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "expand", "--spec", str(path))
        assert code == 0
        assert out.strip().splitlines()[-2:] == ["P[1,1] = A1", "P[2,-1] = A2"]

    def test_machine_roundtrip(self, capsys):
        code, out, _ = run(capsys, "expand", "--builtin", "ex_cd", "--order", "3",
                           "--format", "machine")
        assert code == 0
        spec, ctx, comps = table_from_machine(out)
        table = expand_table(load_builtin("ex_cd", 3))
        assert comps[0].entries == table.components[0].entries
        assert comps[1].entries == table.components[1].entries

    def test_difference_expand(self, capsys):
        code, out, _ = run(capsys, "expand", "--builtin", "ex_difference")
        assert code == 0
        assert "P[0] = A[0]" in out

    def test_spec_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"class": "scalar", "linear_part": [[0, 1], [0, 1]],
                                    "V": ["y"], "order": 2}))
        code, _, err = run(capsys, "expand", "--spec", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_input_exit_2(self, capsys):
        code, _, err = run(capsys, "expand")
        assert code == 2

    @pytest.mark.parametrize("extra,name", [
        ({"params": ["t"]}, "t"),
        ({"params": ["A1"]}, "A1"),
        ({"params": ["p", "p"]}, "p"),
        ({"amplitude_names": ["B", "B"]}, "B"),
        ({"amplitude_names": ["eps", "A2"]}, "eps"),
        ({"params": ["y1"]}, "y1"),
    ])
    def test_name_collision_exit_2(self, capsys, tmp_path, extra, name):
        doc = {"class": "semisimple", "linear_part": [1, -1], "V": ["y1*y2", "y2"],
               "order": 2, **extra}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "expand", "--spec", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and repr(name) in err

    @pytest.mark.parametrize("doc,field", [
        ({"class": "semisimple", "linear_part": [1, -1], "V": [3, "y1"]}, "V"),
        ({"class": "semisimple", "linear_part": [1, -1], "V": [None, "y1"]}, "V"),
        ({"class": "semisimple", "linear_part": [1, -1], "V": "ab"}, "V"),
        ({"class": "oscillator", "masses": [1], "V": [3]}, "V"),
        ({"class": "oscillator", "masses": [1], "V": [None]}, "V"),
        ({"class": "semisimple", "linear_part": [1, -1], "V": ["y1", "y2"],
          "amplitude_names": [5, "A2"]}, "amplitude_names"),
        ({"class": "semisimple", "linear_part": [1, -1], "V": ["y1", "y2"],
          "amplitude_names": "AB"}, "amplitude_names"),
        ({"class": "semisimple", "linear_part": [1, -1], "V": ["a*y1", "b*y2"],
          "params": "ab"}, "params"),
        ({"class": "oscillator", "masses": [1], "V": ["a*q1"], "params": "a"}, "params"),
    ])
    def test_field_not_a_list_of_strings_exit_2(self, capsys, tmp_path, doc, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**doc, "order": 2}))
        code, out, err = run(capsys, "expand", "--spec", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {field} must be a list of strings\n"

    @pytest.mark.parametrize("doc,message", [
        ({"class": "semisimple", "linear_part": [1, -1], "V": ["y1*y2", "y1*y2"],
          "order": True}, "order must be an integer >= 0"),
        ({"class": "semisimple", "linear_part": [True, -1], "V": ["y1*y2", "y1*y2"],
          "order": 2}, "semisimple linear_part must be a nonempty list of integers"),
        ({"class": "nilpotent", "linear_part": {"mode": False, "size": 1}, "V": ["y1^2"],
          "order": 2}, "nilpotent size must be >= 1 and mode an integer"),
        ({"class": "nilpotent", "linear_part": {"mode": 0, "size": True}, "V": ["y1^2"],
          "order": 2}, "nilpotent size must be >= 1 and mode an integer"),
        ({"class": "scalar", "linear_part": [[True, 1]], "V": ["y^2"], "order": 2},
         "scalar factor multiplicities must be >= 1"),
        ({"class": "scalar", "linear_part": [[0, True]], "V": ["y^2"], "order": 2},
         "scalar factor multiplicities must be >= 1"),
        ({"class": "difference", "alpha": [[2, "1"], [-2, "1"]], "order": 2,
          "window": True}, "window must be an integer >= 0"),
        ({"class": "difference", "alpha": [[True, "1"], [-2, "1"]], "order": 2,
          "window": 10}, "alpha powers must be integers"),
        ({"class": "difference", "alpha": [[2, True], [-2, "1"]], "order": 2,
          "window": 10}, "bad coefficient True: unknown symbol 'True'"),
        ({"class": "oscillator", "masses": [True], "V": ["q1^2"], "order": 2},
         "oscillator masses must be positive integers"),
    ], ids=["order", "modes", "nilpotent-mode", "nilpotent-size", "scalar-m", "scalar-n",
            "window", "alpha-power", "alpha-coeff", "masses"])
    def test_boolean_for_an_integer_exit_2(self, capsys, tmp_path, doc, message):
        # JSON true/false are Python bools, a subclass of int
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "expand", "--spec", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_spec_file_with_order_is_parsed_once(self, capsys, tmp_path, monkeypatch):
        import rgperturb.cli

        calls = []

        def counting(text, parse=rgperturb.cli.parse_spec):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(rgperturb.cli, "parse_spec", counting)
        path = tmp_path / "ex_cd.json"
        path.write_text(json.dumps(load_builtin("ex_cd").to_document(), indent=2))
        code, out, _ = run(capsys, "expand", "--spec", str(path), "--order", "3")
        assert code == 0
        assert len(calls) == 1
        assert out.splitlines()[0] == "# ex_cd.json: class semisimple, order 3"
        assert out.splitlines()[1:] == expand_table(load_builtin("ex_cd", 3)).render().splitlines()

    def test_spec_file_negative_order_exit_2(self, capsys, tmp_path):
        path = tmp_path / "ex_cd.json"
        path.write_text(json.dumps(load_builtin("ex_cd").to_document(), indent=2))
        code, out, err = run(capsys, "expand", "--spec", str(path), "--order", "-1")
        assert code == 2 and out == ""
        assert err == "error: order must be an integer >= 0\n"

    @pytest.mark.parametrize("command", ["expand", "rg", "verify"])
    def test_exponent_past_the_limit_exit_2(self, capsys, tmp_path, command):
        # a packed key holds exponents up to 2^31 - 1 per symbol
        doc = {"class": "semisimple", "linear_part": [1, -1], "params": ["a"],
               "V": ["a^5000000000*y1*y2 + E^-1*y2", "a*y1*y2 + E*y1"], "order": 4}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--spec", str(path))
        assert code == 2 and out == ""
        # the exponent as written, not the first square past the limit
        assert err == "error: exponent 5000000000 exceeds the limit 2147483647\n"

    def test_nested_power_past_the_limit_exit_2(self, capsys, tmp_path):
        # each exponent is within the limit; the product of the two is not
        doc = {"class": "semisimple", "linear_part": [1, -1],
               "V": ["(y1^65536)^65536 + y2", "y1*y2 + E*y1"], "order": 2}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "expand", "--spec", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: exponent ") and "exceeds the limit 2147483647" in err

    @pytest.mark.parametrize("order", [1, 2])
    def test_state_power_at_the_limit_exit_0_or_2(self, tmp_path, order):
        # y1^(2^31 - 1) is reached by repeated squaring; a child that built
        # it one factor at a time would run out of its address space or time
        doc = {"class": "semisimple", "linear_part": [1, -1], "params": ["a"],
               "V": [f"y1^{MAX_EXP}", "0"], "order": order}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        limit = 1 << 30

        def cap_address_space():  # runs in the child only
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        child = subprocess.run(
            [sys.executable, "-m", "rgperturb.cli", "expand", "--spec", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
            preexec_fn=cap_address_space)
        assert child.returncode in (0, 2), child.stderr
        if child.returncode == 2:
            assert child.stderr == f"error: exponent {MAX_EXP + 1} exceeds the limit {MAX_EXP}\n"
        else:
            assert f"P[1,{MAX_EXP}] = " in child.stdout

    @pytest.mark.parametrize("command", ["expand", "rg", "verify"])
    def test_huge_exact_coefficient_is_printed(self, capsys, tmp_path, command):
        # 3^10000 has 4772 decimal digits, past Python's default cap of 4300
        # for int -> str, and past the float range
        doc = {"class": "semisimple", "linear_part": [1, -1],
               "V": ["3^10000*y1", "y1*y2 + E*y1"], "order": 2}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        cap = sys.get_int_max_str_digits()
        code, out, err = run(capsys, command, "--spec", str(path))
        assert sys.get_int_max_str_digits() == cap
        assert code == 0 and err == ""
        if command != "verify":
            sys.set_int_max_str_digits(0)
            try:
                want = str(3 ** 10000)
            finally:
                sys.set_int_max_str_digits(cap)
            assert want in re.findall(r"\d+", out)
        else:
            lines = out.splitlines()
            assert sum(ln.startswith("PASS check_") for ln in lines) == 5
            assert lines[-1] == ("SKIP numeric_smoke [spec.json K=2] "
                                 ":: a coefficient is outside the floating-point range")

    def test_high_state_degree_expands(self, capsys, tmp_path):
        doc = {"class": "semisimple", "linear_part": [1, -1], "order": 3,
               "V": ["y1^1000 + y2", "y1*y2 + E*y1"]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "expand", "--spec", str(path))
        assert code == 0 and err == ""
        assert "P[1,2998] = 999500/2991008997*i*eps^3*A1^2998" in out


class TestRG:
    def test_cd_polar_reference_lines(self, capsys):
        code, out, _ = run(capsys, "rg", "--builtin", "ex_cd", "--polar", "1:2",
                           "--order", "6")
        assert code == 0
        assert "dR/dt = 1/3*eps^4*R^4*sin(theta)" in out
        assert "97/180*eps^6*R^4*sin(theta)" in out
        assert "dtheta/dt = -1/3*eps^2 - eps^2*R^2" in out

    def test_oscillator_polar(self, capsys):
        code, out, _ = run(capsys, "rg", "--builtin", "ex_oscillators",
                           "--polar", "1:2,3:4", "--order", "4")
        assert code == 0
        assert "dR1/dt = 14/3*eps^2*R1^2*R2*sin(theta1-theta2)" in out

    def test_third_order_form(self, capsys):
        code, out, _ = run(capsys, "rg", "--builtin", "ex_third")
        assert code == 0
        assert "d^3A1/dt^3 = " in out
        assert "2*eps^2*A1*A2*A3" in out

    def test_polar_pairing_failure_exit_3(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"class": "semisimple", "linear_part": [1, -1],
                                    "V": ["y1^2*y2", "0"], "order": 2}))
        code, out, err = run(capsys, "rg", "--spec", str(path), "--polar", "1:2")
        assert code == 3
        assert out == "" and err.startswith("error: polar pairing: ")

    @pytest.mark.parametrize("pairs", ["x", "1", "1:", "a:b"])
    def test_malformed_polar_exit_2(self, capsys, pairs):
        code, out, err = run(capsys, "rg", "--builtin", "ex_cd", "--polar", pairs)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and repr(pairs) in err

    def test_expansion_and_inversion_flags(self, capsys):
        code, out, _ = run(capsys, "rg", "--builtin", "ex_cd", "--order", "2",
                           "--expansion", "--inversion")
        assert code == 0
        assert "Y[1,1] = A1" in out
        assert "A1_bare = " in out

    def test_machine_format(self, capsys):
        code, out, _ = run(capsys, "rg", "--builtin", "ex_bt", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "rg_system"
        assert doc["amplitudes"] == "renormalized"
        names = [name for name, _ in doc["fields"]]
        assert names == ["A1", "A2"]

    @pytest.mark.parametrize("flag", [["--polar", "1:2"], ["--expansion"], ["--inversion"]],
                             ids=lambda flag: flag[0])
    def test_text_only_flag_in_machine_format_exit_2(self, capsys, flag):
        code, out, err = run(capsys, "rg", "--builtin", "ex_cd", "--format", "machine", *flag)
        assert code == 2 and out == ""
        assert err == "error: --polar/--expansion/--inversion are text-format only\n"

    def test_machine_roundtrip(self, capsys):
        from rgperturb.cli import rg_from_machine
        from rgperturb.renorm import derive_rg

        code, out, _ = run(capsys, "rg", "--builtin", "ex_bt", "--format", "machine")
        spec, rg = rg_from_machine(out)
        direct = derive_rg(expand_table(load_builtin("ex_bt")))
        assert rg.fields == direct.fields
        assert rg.ctx.amplitudes == direct.ctx.amplitudes


class TestVerify:
    @pytest.mark.parametrize("name,order", [
        ("ex_cd", 4), ("ex_bt", 3), ("ex_third", 3), ("ex_scalar1", 5),
    ])
    def test_builtins_pass(self, capsys, name, order):
        code, out, _ = run(capsys, "verify", "--builtin", name, "--order", str(order))
        assert code == 0, out
        assert "FAIL" not in out
        assert "PASS check_functional_relation" in out
        assert "PASS numeric_smoke" in out

    def test_random_spec(self, capsys):
        code, out, _ = run(capsys, "verify", "--random", "semisimple", "--seed", "7",
                           "--order", "3")
        assert code == 0, out
        assert "PASS check_residual" in out

    def test_random_spec_is_parsed_once(self, capsys, monkeypatch):
        import rgperturb.checks
        import rgperturb.cli

        calls = []

        def counting(text, parse=rgperturb.checks.parse_spec):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(rgperturb.checks, "parse_spec", counting)
        monkeypatch.setattr(rgperturb.cli, "parse_spec", counting)
        code, out, _ = run(capsys, "verify", "--random", "nilpotent", "--seed", "5",
                           "--order", "2")
        assert code == 0, out
        assert len(calls) == 1 and json.loads(calls[0])["order"] == 2

    def test_random_spec_negative_order_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--random", "scalar", "--seed", "1",
                             "--order", "-1")
        assert code == 2 and out == ""
        assert err == "error: order must be an integer >= 0\n"

    @pytest.mark.parametrize("source", [["--builtin", "ex_cd"], ["--spec", "SPEC"]])
    def test_random_with_an_input_exit_2(self, capsys, tmp_path, source):
        path = tmp_path / "ex_cd.json"
        path.write_text(json.dumps(load_builtin("ex_cd").to_document(), indent=2))
        source = [str(path) if a == "SPEC" else a for a in source]
        code, out, err = run(capsys, "verify", "--random", "scalar", *source)
        assert code == 2 and out == ""
        assert err == "error: give either --random or an input (--builtin/--spec), not both\n"

    def test_corrupted_table_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--builtin", "ex_cd", "--order", "3",
                           "--corrupt")
        assert code == 1
        assert "FAIL check_functional_relation" in out
        assert "monomial" in out

    def test_difference_class(self, capsys):
        code, out, _ = run(capsys, "verify", "--builtin", "ex_difference")
        assert code == 0, out
        assert "PASS check_difference_equation" in out
        assert "INFO stability" in out

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    def test_non_finite_eps_exit_2(self, capsys, eps):
        # a NaN never wins the max in the stability report, which then
        # claimed a stable Theta
        code, out, err = run(capsys, "verify", "--builtin", "ex_difference", f"--eps={eps}")
        assert code == 2 and out == ""
        assert err == f"error: --eps must be finite, got {eps}\n"

    @pytest.mark.parametrize("seed,order", [(35, 3), (28, 4)])
    def test_numeric_smoke_preasymptotic_passes(self, capsys, seed, order):
        # every exact check passes; at (0.2, 0.1) the truncation tail has not
        # yet reached its 2^(K+1) scaling, at (0.1, 0.05) it has
        code, out, _ = run(capsys, "verify", "--random", "nilpotent", "--seed", str(seed),
                           "--order", str(order))
        assert code == 0, out
        line = out.splitlines()[-1]
        prefix = f"PASS numeric_smoke [random-nilpotent-{seed} K={order}] "
        assert line.startswith(prefix)
        fields = dict(f.split("=") for f in line[len(prefix):].split())
        assert list(fields) == ["d(0.2)/d(0.1)", "d(0.1)/d(0.05)", "bar"]
        bar = float(fields["bar"])
        assert bar == 0.6 * 2 ** (order + 1)
        assert float(fields["d(0.2)/d(0.1)"]) <= bar < float(fields["d(0.1)/d(0.05)"])

    def test_numeric_smoke_skips_when_exact_checks_fail(self, capsys):
        # the spot check measures d(0.2)/d(0.1)=7.3 over its bar 4.8 here;
        # once an exact check has failed its verdict would say nothing
        code, out, _ = run(capsys, "verify", "--random", "semisimple", "--seed", "8",
                           "--corrupt")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("FAIL check_functional_relation")
        assert lines[-1] == ("SKIP numeric_smoke [random-semisimple-8#corrupted K=2] "
                             ":: exact checks failed")
        assert sum(" numeric_smoke " in ln for ln in lines) == 1

    @pytest.mark.parametrize("argv,reason", [
        (("--builtin", "ex_difference"), "--corrupt has no negative control for the difference class"),
        (("--builtin", "ex_cd", "--order", "0"),
         "--corrupt needs order >= 1: its eps*t bump vanishes at order 0"),
        (("--random", "scalar", "--seed", "7", "--order", "0"),
         "--corrupt needs order >= 1: its eps*t bump vanishes at order 0"),
    ])
    def test_corrupt_that_cannot_corrupt_exit_2(self, capsys, argv, reason):
        # a negative control that changes nothing used to print PASS lines and exit 0
        code, out, err = run(capsys, "verify", *argv, "--corrupt")
        assert (code, out, err) == (2, "", f"error: {reason}\n")

    # the numeric_smoke lines as the per-term evaluation that `poly.Evaluator`
    # replaced printed them: the six built-ins at their default orders
    # (ex_difference has none), the two pinned pre-asymptotic specs, and per
    # random class the SHA-256 of the lines of seeds 0-199 at order 3 joined
    # by newlines
    SMOKE_LINES = {
        ("--builtin", "ex_cd"): "PASS numeric_smoke [ex_cd K=5] d(0.2)/d(0.1)=64.92 bar=38.4",
        ("--builtin", "ex_bt"): "PASS numeric_smoke [ex_bt K=3] d(0.2)/d(0.1)=15.85 bar=9.6",
        ("--builtin", "ex_third"): "PASS numeric_smoke [ex_third K=4] d(0.2)/d(0.1)=29.14 bar=19.2",
        ("--builtin", "ex_oscillators"):
            "PASS numeric_smoke [ex_oscillators K=4] d(0.2)/d(0.1)=32.19 bar=19.2",
        ("--builtin", "ex_scalar1"):
            "PASS numeric_smoke [ex_scalar1 K=6] d(0.2)/d(0.1)=131.7 bar=76.8",
        ("--builtin", "ex_difference"): "",
        ("--random", "nilpotent", "--seed", "35", "--order", "3"):
            "PASS numeric_smoke [random-nilpotent-35 K=3] d(0.2)/d(0.1)=7.415 "
            "d(0.1)/d(0.05)=13.56 bar=9.6",
        ("--random", "nilpotent", "--seed", "28", "--order", "4"):
            "PASS numeric_smoke [random-nilpotent-28 K=4] d(0.2)/d(0.1)=8.668 "
            "d(0.1)/d(0.05)=20.93 bar=19.2",
    }
    SMOKE_DIGESTS = {
        "semisimple": "1a43c05dbe082a50dff7c6ca3d0a3fef053cf6eb042f709965e690cd4fe7a49f",
        "nilpotent": "9e93ace2d95c226e4cb4bb2a9d2745c98c165e08d9b9897e140bcf48b4d45eb0",
        "scalar": "98a40bbb3b7445cb05bbf69f55658cbe57d491fbce5396c07cc01ad36cacaa84",
    }

    @staticmethod
    def smoke_line(capsys, *argv):
        main(["verify", *argv])
        lines = [ln for ln in capsys.readouterr().out.splitlines() if " numeric_smoke " in ln]
        return lines[0] if lines else ""

    def test_numeric_smoke_lines_unchanged(self, capsys):
        for argv, line in self.SMOKE_LINES.items():
            assert self.smoke_line(capsys, *argv) == line
        for klass, digest in self.SMOKE_DIGESTS.items():
            lines = [self.smoke_line(capsys, "--random", klass, "--seed", str(seed), "--order", "3")
                     for seed in range(200)]
            assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, klass

    def test_numeric_smoke_builds_one_evaluator_per_list(self, monkeypatch):
        # the amplitudes and the table entries are each decoded once, and
        # evaluated at three points per eps (here eps = 0.2, 0.1 and 0.05)
        built, calls = [], []

        class Counting(cli.Evaluator):
            __slots__ = ()

            def __init__(self, ctx, polys):
                built.append(len(polys))
                super().__init__(ctx, polys)

            def __call__(self, values):
                calls.append(self)
                return super().__call__(values)

        monkeypatch.setattr(cli, "Evaluator", Counting)
        table = expand_table(random_spec("nilpotent", 35, 3))
        ok, detail = cli._numeric_smoke(table, random.Random(35))
        assert ok and "d(0.1)/d(0.05)" in detail
        entries = sum(len(comp.entries) for comp in table.observed_components())
        assert built == [len(table.ctx.amplitudes), entries]
        assert len(calls) == 9

    def test_difference_odd_u_skips(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"class": "difference", "alpha": [[1, "1"], [-1, "1"]],
                                    "order": 3, "window": 8}))
        code, out, _ = run(capsys, "verify", "--spec", str(path))
        assert code == 0, out
        lines = out.splitlines()
        assert [ln.split(" [")[0] for ln in lines[:3]] == [
            "SKIP check_functional_relation", "SKIP check_difference_equation",
            "SKIP check_rg_flow",
        ]
        assert all(ln.endswith(":: not applicable (needs an even U)") for ln in lines[:3])
        assert lines[3].startswith("INFO stability") and len(lines) == 4

    def test_difference_window_too_small_exit_2(self, capsys, tmp_path):
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps({"class": "difference", "alpha": [[2, "1"], [-2, "1"]],
                                    "order": 4, "window": 5}))
        errors = []
        for command in ("expand", "verify"):
            code, out, err = run(capsys, command, "--spec", str(path))
            assert code == 2 and out == ""
            errors.append(err)
        assert errors == ["error: window W=5 too small for harmonic 0 at order 4 (need >= 8)\n"] * 2


class TestSimulate:
    def test_pipeline_artifacts(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "--eps", "0.25", "--t-end", "2.0",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "ex_cd_direct.csv").exists()
        assert (tmp_path / "ex_cd_rg_polar.csv").exists()
        assert (tmp_path / "ex_cd_reconstruction.csv").exists()
        assert (tmp_path / "ex_cd_overlay.svg").exists()
        assert "conjugate deviation" in out
        header = (tmp_path / "ex_cd_direct.csv").read_text().splitlines()[0]
        assert header == "t,re_1,im_1,re_2,im_2"

    def test_env_var_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RGPERTURB_OUT", str(tmp_path))
        code, out, _ = run(capsys, "simulate", "--t-end", "1.0")
        assert code == 0
        assert (tmp_path / "ex_cd_direct.csv").exists()

    def test_deterministic_output(self, capsys, tmp_path):
        for sub in ("a", "b"):
            d = tmp_path / sub
            code, _, _ = run(capsys, "simulate", "--t-end", "1.0", "--out-dir", str(d))
            assert code == 0
        a = (tmp_path / "a" / "ex_cd_direct.csv").read_bytes()
        b = (tmp_path / "b" / "ex_cd_direct.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("option,value", [
        ("--dt", "0"), ("--dt", "-0.1"), ("--dt", "nan"), ("--t-end", "-1"),
        ("--t-end", "inf"), ("--eps", "nan"), ("--r0", "inf"), ("--theta0", "nan"),
        ("--rg-order", "-1"), ("--ren-order", "-1"),
    ])
    def test_bad_numbers_exit_2(self, capsys, tmp_path, option, value):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "simulate", "--t-end", "1.0", option, value,
                             "--out-dir", str(out_dir))
        assert code == 2
        assert err.startswith(f"error: {option} must be ") and out == ""
        assert not out_dir.exists()

    def test_spec_with_params_exit_2(self, capsys, tmp_path):
        # simulate has no option for parameter values, so a spec with
        # parameters is rejected before any field is compiled
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "class": "semisimple", "linear_part": [1, -1], "params": ["a"],
            "V": ["a*y1*y2 + E^-1*y2", "a*y1*y2 + E*y1"], "order": 4,
        }))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "simulate", "--spec", str(path), "--t-end", "1.0",
                             "--out-dir", str(out_dir))
        assert code == 2
        assert err == "error: missing numeric values for parameters ['a']\n"
        assert out == ""
        assert not out_dir.exists()

    def test_overflow_exit_4(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--eps", "80.0", "--t-end", "5.0",
                           "--out-dir", str(tmp_path))
        assert code == 4
        assert "overflow" in err

    def test_non_finite_initial_state_exit_4(self, capsys, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "simulate", "--r0", "1e200", "--t-end", "1.0",
                                 "--out-dir", str(tmp_path / "out"))
        assert code == 4 and out == ""
        assert err == "error: numeric overflow: state became non-finite at t=0\n"
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "out").exists()

    @settings(max_examples=30, deadline=None)
    @given(r0=st.floats(-1e300, 1e300), eps=st.floats(-1e3, 1e3))
    @example(r0=1e200, eps=0.25)
    @example(r0=50.0, eps=0.25)
    @example(r0=1.3, eps=80.0)
    def test_large_numbers_exit_0_or_4(self, r0, eps):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["simulate", "--t-end", "2", f"--r0={r0!r}", f"--eps={eps!r}",
                         "--out-dir", tmp])
        assert [str(w.message) for w in caught] == []
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert code == 4 and out.getvalue() == ""
            message = err.getvalue()
            assert message.startswith("error: numeric overflow: state became non-finite at t=")
            assert message.count("\n") == 1


class TestParser:
    # SHA-256 of the help and usage text at 80 columns, (stdout, stderr)
    HELP = {
        (): ("", "75e3f36d26b4a47ee15193a0d7aa0047f154b83340c69c8b8bc1dcae12053b03"),
        ("--help",): ("da2d16f0aead65d6d0c92047475349dfe19d3effafc54358a63a3b56dd9148d4", ""),
        ("expand", "--help"):
            ("5ffbe719f326014e55ab20ba64e48b8383f728768d2367e4268d037022b1b81a", ""),
        ("rg", "--help"):
            ("92cfd51f338d34782d71035a3cf1d241c3a9317eea4c309fd85bc43ab1924e07", ""),
        ("verify", "--help"):
            ("452a9fb32ee8a87db6284234027afa27bb6bc2ea2f16f8d086119e3fe4a834eb", ""),
        ("simulate", "--help"):
            ("63a77ba243506511c1f3cdddf3c28e68643e7acfba86ccabe8f03968320f9e92", ""),
        ("simulate", "--bogus"):
            ("", "2066f53423d86864e820f905f15c6202c81552651e848ad0eb60cee3facf5447"),
    }

    @pytest.mark.parametrize("argv", sorted(HELP))
    def test_help_and_usage_text(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):  # a second call in the same process prints the same
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == (0 if "--help" in argv else 2)
            captured = capsys.readouterr()
            got = tuple(hashlib.sha256(text.encode()).hexdigest() if text else ""
                        for text in (captured.out, captured.err))
            assert got == self.HELP[argv]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=40)


class TestMachineJson:
    """The direct writer of the machine format against the standard encoder."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    @example([[0, 1, 2], ["1/2", "-3"], [], {}, [[]], {"a": [True, None, -0.0]}])
    @example({"\u00e9\n\"": [float("nan"), float("inf"), -float("inf"), 1e300, 2 ** 70]})
    def test_matches_json_dumps(self, doc):
        assert machine_json(doc) == json.dumps(doc, indent=2)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
    @example(0, 7)
    @example(-6, 3)
    def test_ratio_text_is_the_fraction_text(self, n, d):
        assert _ratio_text(n, d) == str(Fraction(n, d))

    def test_keys_must_be_strings(self):
        with pytest.raises(TypeError):
            machine_json({1: 2})


class TestDeterminism:
    def test_expand_is_bit_identical(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "expand", "--builtin", "ex_bt", "--order", "2")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_rg_is_bit_identical(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "rg", "--builtin", "ex_oscillators",
                               "--order", "3", "--polar", "1:2,3:4")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


def test_builtin_registry_complete():
    assert builtin_names() == [
        "ex_bt", "ex_cd", "ex_difference", "ex_oscillators", "ex_scalar1", "ex_third",
    ]
    for name in builtin_names():
        spec = load_builtin(name)
        assert spec.order >= 1
