"""Byte-level goldens of the command-line output for every built-in.

Each case pins the SHA-256 of stdout and the exit code of one command at the
built-in's default order, plus ``verify`` of ex_cd at order 8, of the
cosine difference equation at order 6, window 16 (a spec file), and
``expand`` of ex_cd, ex_bt and ex_third at orders 12, 5 and 6, one per ODE
engine, deeper than any other case.  A refactor of the engine, the
renormalization layer or the checks must leave all of them unchanged.  The ``verify --corrupt`` cases pin the FAIL detail text of
the corrupted table's checks; the ``numeric_smoke`` line is left out of the
``verify`` cases because it is a floating-point spot check, not an exact
identity.

The ``simulate`` cases pin stdout and all six artifacts (three CSVs, three
SVGs) of ex_cd at two settings, so a change to the numeric fields that
moves even the last bit of one CSV value fails here.
"""

import hashlib
import json

import pytest

from rgperturb.cli import main

COMMANDS = {
    "expand": ("expand", "--format", "machine"),
    "verify": ("verify",),
    "rg": ("rg", "--format", "machine"),
    "corrupt": ("verify", "--corrupt"),
    # the benchmark's order: reaches image degrees the default orders do not
    "verify8": ("verify", "--order", "8"),
    "corrupt8": ("verify", "--order", "8", "--corrupt"),
    # deep orders of the semisimple, nilpotent and scalar engines
    "expand5": ("expand", "--format", "machine", "--order", "5"),
    "expand6": ("expand", "--format", "machine", "--order", "6"),
    "expand12": ("expand", "--format", "machine", "--order", "12"),
}

COSINE = "cosine_difference.json"
COSINE_DOC = {"class": "difference", "alpha": [[2, "1"], [-2, "1"]], "order": 6, "window": 16}

# (builtin, random-<class>-<seed> or spec file name, command) -> (exit code, SHA-256 of stdout)
GOLDEN = {
    ("ex_bt", "expand"): (0, "bc16841b949144d20205e873b5808ebc26165203c650f644331d2ca56d7ab5e4"),
    ("ex_bt", "rg"): (0, "a5849a094291daf3f9b21bca26e9350f1cbc9a7367bcf8e1942107a3b0153c2b"),
    ("ex_bt", "corrupt"): (1, "15d3ba3b9b9bd6481cae96797f75e6f2ad552ebefbcc94467153c25a819130b6"),
    ("ex_bt", "expand5"): (0, "08fc6749778f50664a813f08f24d353bb4037346b36b33cfef4cbcf124137d28"),
    ("ex_cd", "expand"): (0, "22acbcc59ebf77f74a13158d39e44ac680ed2feb61dfde4d937846aa8cb816fe"),
    ("ex_cd", "rg"): (0, "11cdc8279312d379b5defebe6ec6e50a722986578e9999f5e3276c52b225385a"),
    ("ex_cd", "corrupt"): (1, "024f72aa9015f4e3acc2d753a00c7d48debc763f27272002e63f718a151c71f0"),
    ("ex_cd", "verify8"): (0, "db199622b566698d1f17625d0b44f1fe4d9b3cb3d79edebd88e1bdb4b8740226"),
    ("ex_cd", "corrupt8"): (1, "aaeeeb06f0de069db888a6ce1f07f9593ea3174bb472b22180b213eec7cd7974"),
    ("ex_cd", "expand12"): (0, "6b689daa1c5cb4ff73cf4e7e694bd7a68df2d269823d1d23fb1566f9c50d45e5"),
    ("ex_difference", "expand"): (0, "e1f601cf35201a53bd1e11c4376b33ada2633119cdd12a163f0023cce110ac4a"),
    ("ex_difference", "rg"): (0, "0929a1010cab84e221896ca5d1fa8b881bbf8f7b152b2ef739dfdce3f92295d3"),
    ("ex_difference", "corrupt"): (0, "f7d650e89a1d6c2268908bb5ac190b70dea9b1e6ee9e2bed81e3c41a5bb07feb"),
    ("ex_oscillators", "expand"): (0, "bbdd097ac47ef2e3da0d5ccda8638309a933522b9c7c19a64a49c363d4a8bfb0"),
    ("ex_oscillators", "rg"): (0, "1b10c25c040172e35c5a48a4b756a84eeb35f61084ecc3ae04913f444ccddeac"),
    ("ex_oscillators", "corrupt"): (1, "69e272109710c7da14f23f9e97d9a46ea9a13f7c809f416c0d79d357523fd4e9"),
    ("ex_scalar1", "expand"): (0, "6d5b7561de9915c498b284ec429449afab55fab7e1a9677ba4508a9b93e8d89d"),
    ("ex_scalar1", "rg"): (0, "84ba2eaf4274c1e1f7238ade64beccd43d6770dabe289815dc3cc205656298bf"),
    ("ex_scalar1", "corrupt"): (1, "8ead510e9cbb1c00d9b54fb286eef7e91dcff2021206e61595c9824df2f5b92f"),
    ("ex_third", "expand"): (0, "719e29fdb7c679b51761f2b47c8dc763bd38ec5425c73f703cc2ff2a2a527209"),
    ("ex_third", "rg"): (0, "6b9525224afed5e199deadb959022a5c3509686779f943858c904dac96dec8ae"),
    ("ex_third", "corrupt"): (1, "aa34e0e95d3881e09538ad74a4d5fbf017b522e80eeecec51f15591e554c81d7"),
    ("ex_third", "expand6"): (0, "70344e80e0ee75f0aca00b12781d11e9df20c2227d95865ee9cab754aaa6b7d6"),
    # a scalar spec whose corrupted naive residual depends on the table's own
    # derivative slots, not only on slot 0 (the built-ins do not show this)
    ("random-scalar-2", "corrupt"): (1, "2959006483285fe0185baed0c74601b20a4ad328d7b1cf15fd28aaa5e73bc76e"),
    # the benchmark's difference job: the window is wide enough for order 6
    (COSINE, "expand"): (0, "4e8e7238cc141fe55f64196616263c413e48b4bc5235223fe732cccb5cf9003c"),
    (COSINE, "verify"): (0, "7fa0ad7ec6fbd0589573f2126d01268792c39426febdface601d417e831eb821"),
}


def source_args(source, tmp_path):
    if source == COSINE:
        path = tmp_path / COSINE  # the file name is the label in the output
        path.write_text(json.dumps(COSINE_DOC))
        return ["--spec", str(path)]
    if source.startswith("random-"):
        _, klass, seed = source.split("-")
        return ["--random", klass, "--seed", seed]
    return ["--builtin", source]


@pytest.mark.parametrize("source,command", sorted(GOLDEN))
def test_stdout_is_byte_identical(capsys, tmp_path, source, command):
    argv = list(COMMANDS[command])
    argv[1:1] = source_args(source, tmp_path)
    code = main(argv)
    out = capsys.readouterr().out
    if argv[0] == "verify":
        out = "".join(ln for ln in out.splitlines(True) if " numeric_smoke " not in ln)
    expect_code, expect_sha = GOLDEN[source, command]
    assert code == expect_code
    assert hashlib.sha256(out.encode()).hexdigest() == expect_sha


SIMULATE_ARGS = {
    "default": ("--t-end", "20"),
    "settings": ("--t-end", "20", "--eps", "0.1", "--rg-order", "2", "--ren-order", "4",
                 "--r0", "0.7", "--theta0", "-1.3"),
}

# settings -> {"stdout" or artifact file name: SHA-256}
SIMULATE_GOLDEN = {
    "default": {
        "stdout": "d0044401ff2e23189133d095ed2f56d523976e210b7a05ab5d0744613e1a450d",
        "ex_cd_direct.csv": "02019b91701f4e69e7e25ab40080fca03378f90fe4c7bd9b16b4ba94c6f20987",
        "ex_cd_direct.svg": "be23df7e288175506a271f89234072b816896795863c6f4aa9c9360970d1bd33",
        "ex_cd_overlay.svg": "8c40624f89bcd2cf9c32d8bada8b6cbff4335746e68686068eabf5468dffa138",
        "ex_cd_reconstruction.csv": "c0bb03ba46c4212dd83a2ce5f349001afa6b4b82616cf64d52aa52bbfbc4868b",
        "ex_cd_rg.svg": "199225e0134fbc111e468f5249c281599c5f680cfba16b3c78b7b92310e9acf5",
        "ex_cd_rg_polar.csv": "bcac48f9c206078c8a90534785b11a4e481085c3576c7a383cf8b23954c0aa8d",
    },
    "settings": {
        "stdout": "e07982cf7562d09d03e2bb4cfa447b58289ba8361f2dee95e4558011f67b15d5",
        "ex_cd_direct.csv": "64876e1c6593c9247d154dd55f890aef88d0e55f56a247d4e62e11896cca7acf",
        "ex_cd_direct.svg": "699e2c7d60f091def4ec3140f49e572c96c2824ee45d33e79da5e13d719bb8cd",
        "ex_cd_overlay.svg": "9812dec1976a139df70c798b06d57a751f13595bca42e87ae31a8436f792adcf",
        "ex_cd_reconstruction.csv": "500e1fb8217e25acdf7d1b12fa66187da6ea75eb0b7d1f1364707c0e681f7710",
        "ex_cd_rg.svg": "0b1092277df3fdba19fe31334189f4550d1a6ec2d12fca81e68685d7a3faf1c7",
        "ex_cd_rg_polar.csv": "75ccbd49b14938cf1e21edc7d852c8a399bf5cd2fbb2fb320d54d191d54ad359",
    },
}


@pytest.mark.parametrize("settings", sorted(SIMULATE_GOLDEN))
def test_simulate_artifacts_are_byte_identical(capsys, tmp_path, monkeypatch, settings):
    monkeypatch.chdir(tmp_path)  # a relative --out-dir keeps stdout free of tmp paths
    code = main(["simulate", "--builtin", "ex_cd", *SIMULATE_ARGS[settings], "--out-dir", "out"])
    assert code == 0
    got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for path in sorted((tmp_path / "out").iterdir()):
        got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == SIMULATE_GOLDEN[settings]
