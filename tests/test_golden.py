"""Byte-level goldens of the command-line output for every built-in.

Each case pins the SHA-256 of stdout and the exit code of one command at the
built-in's default order, plus ``verify`` of ex_cd at orders 8 and 10, of
ex_bt at order 4, of the cosine difference equation at order 6, window 16
(a spec file, 36 symbols: the widest exponent vector), and
``expand`` of ex_cd, ex_bt and ex_third at orders 12, 5 and 6, one per ODE
class, deeper than any other case.  ``rg --expansion --inversion`` of every
ODE built-in, ``rg --polar 1:2`` of ex_cd and ``expand`` of ex_oscillators
(two conjugate pairs) at order 6 pin the text forms of the RG field, the
renormalized expansion and the inversion, and the mirrored half of a paired
table.  A refactor of the engine, the
renormalization layer or the checks must leave all of them unchanged.  The ``verify --corrupt`` cases pin the FAIL detail text of
the corrupted table's checks; the ``numeric_smoke`` line is left out of the
``verify`` cases because it is a floating-point spot check, not an exact
identity.

The ``simulate`` cases pin stdout and all six artifacts (three CSVs, three
SVGs) of ex_cd at two settings and of a two-mode spec with quadratic
forcing, plus that spec's overflow message, so a change to the numeric
fields that moves even the last bit of one CSV value fails here.

The trajectory cases pin the SHA-256 of the states of the public
integrators on the classes ``simulate`` does not reach: the nilpotent and
scalar direct fields, the complex RG flow with its reconstruction, and a
polar flow with two pairs.
"""

import hashlib
import json

import numpy as np
import pytest

from rgperturb.checks import random_spec
from rgperturb.cli import main
from rgperturb.demos import load_builtin
from rgperturb.engine import expand_table
from rgperturb.numeric import integrate_ode, integrate_polar, integrate_rg, reconstruct
from rgperturb.renorm import derive_rg, polar_transform, renormalized_expansion

COMMANDS = {
    "expand": ("expand", "--format", "machine"),
    "verify": ("verify",),
    "rg": ("rg", "--format", "machine"),
    "corrupt": ("verify", "--corrupt"),
    # the benchmark's order: reaches image degrees the default orders do not
    "verify8": ("verify", "--order", "8"),
    "corrupt8": ("verify", "--order", "8", "--corrupt"),
    # deep verify of the semisimple and nilpotent engines
    "verify10": ("verify", "--order", "10"),
    "verify4": ("verify", "--order", "4"),
    # deep orders of the semisimple, nilpotent and scalar engines
    "expand5": ("expand", "--format", "machine", "--order", "5"),
    "expand6": ("expand", "--format", "machine", "--order", "6"),
    "expand12": ("expand", "--format", "machine", "--order", "12"),
    # the text forms that read the RG field and the renormalized expansion
    "rgfull": ("rg", "--expansion", "--inversion"),
    "polar": ("rg", "--polar", "1:2"),
}

COSINE = "cosine_difference.json"
COSINE_DOC = {"class": "difference", "alpha": [[2, "1"], [-2, "1"]], "order": 6, "window": 16}

# (builtin, random-<class>-<seed> or spec file name, command) -> (exit code, SHA-256 of stdout)
GOLDEN = {
    ("ex_bt", "expand"): (0, "bc16841b949144d20205e873b5808ebc26165203c650f644331d2ca56d7ab5e4"),
    ("ex_bt", "rg"): (0, "a5849a094291daf3f9b21bca26e9350f1cbc9a7367bcf8e1942107a3b0153c2b"),
    ("ex_bt", "corrupt"): (1, "d802461c776b14e85921323c5ad31f99f5bd784a776bd113563ffb7a6c109206"),
    ("ex_bt", "verify4"): (0, "9a5ef373b432b5785e13e392f8d5c16c5ed98922559755183a5c1114d5f9a5f7"),
    ("ex_bt", "rgfull"): (0, "993747205f347bc16e24b5d012dfc4a217e73b40bb533fdd7e0cb17d94e0412e"),
    ("ex_bt", "expand5"): (0, "08fc6749778f50664a813f08f24d353bb4037346b36b33cfef4cbcf124137d28"),
    ("ex_cd", "expand"): (0, "22acbcc59ebf77f74a13158d39e44ac680ed2feb61dfde4d937846aa8cb816fe"),
    ("ex_cd", "rg"): (0, "11cdc8279312d379b5defebe6ec6e50a722986578e9999f5e3276c52b225385a"),
    ("ex_cd", "corrupt"): (1, "ae430ae1f2f1fcd82283702ac3ad36c05756b70e2ef942cc9541c6b7a7acc8dc"),
    ("ex_cd", "verify8"): (0, "db199622b566698d1f17625d0b44f1fe4d9b3cb3d79edebd88e1bdb4b8740226"),
    ("ex_cd", "verify10"): (0, "ff55f1f743487125dedb619c4d7dac2c4291d43e59871bfc114d5246a88ba4ce"),
    ("ex_cd", "corrupt8"): (1, "dfb29afe98b38cc1d51728ea17e4605132d611e854cd0fa6746a90968e0bee45"),
    ("ex_cd", "expand12"): (0, "6b689daa1c5cb4ff73cf4e7e694bd7a68df2d269823d1d23fb1566f9c50d45e5"),
    ("ex_cd", "rgfull"): (0, "4d6612945592ec450c8db998721147a451ab05b3257ae12d8a5169d5c7d53483"),
    ("ex_cd", "polar"): (0, "f272bfc5a4453fc2013c40669ae9be8e795768bed8ff806b68ede2483e275025"),
    ("ex_difference", "expand"): (0, "e1f601cf35201a53bd1e11c4376b33ada2633119cdd12a163f0023cce110ac4a"),
    ("ex_difference", "rg"): (0, "0929a1010cab84e221896ca5d1fa8b881bbf8f7b152b2ef739dfdce3f92295d3"),
    ("ex_difference", "corrupt"): (0, "f7d650e89a1d6c2268908bb5ac190b70dea9b1e6ee9e2bed81e3c41a5bb07feb"),
    ("ex_oscillators", "expand"): (0, "bbdd097ac47ef2e3da0d5ccda8638309a933522b9c7c19a64a49c363d4a8bfb0"),
    ("ex_oscillators", "rg"): (0, "1b10c25c040172e35c5a48a4b756a84eeb35f61084ecc3ae04913f444ccddeac"),
    ("ex_oscillators", "corrupt"): (1, "ca283b90ca2ff17026417cb9f167d80a1dcb35658b9a32ad0d29b25c5aaafe57"),
    ("ex_oscillators", "rgfull"): (0, "6f9634bcf0f78096ccd07ef7c7324e512aa97897dc63cc1103ac331505500113"),
    # two conjugate pairs, (1 2)(3 4)
    ("ex_oscillators", "expand6"): (0, "4bce8fe804d678d1ab80ac03cb59a10dee5e5598f17bd5556125724043b815ec"),
    ("ex_scalar1", "expand"): (0, "6d5b7561de9915c498b284ec429449afab55fab7e1a9677ba4508a9b93e8d89d"),
    ("ex_scalar1", "rg"): (0, "84ba2eaf4274c1e1f7238ade64beccd43d6770dabe289815dc3cc205656298bf"),
    ("ex_scalar1", "corrupt"): (1, "8ead510e9cbb1c00d9b54fb286eef7e91dcff2021206e61595c9824df2f5b92f"),
    ("ex_scalar1", "rgfull"): (0, "e79e1c758a9435b94c416abc656ea2f0d323054f983b21f866a31e104226c446"),
    ("ex_third", "expand"): (0, "719e29fdb7c679b51761f2b47c8dc763bd38ec5425c73f703cc2ff2a2a527209"),
    ("ex_third", "rg"): (0, "6b9525224afed5e199deadb959022a5c3509686779f943858c904dac96dec8ae"),
    ("ex_third", "corrupt"): (1, "59e8743d0bea34067dfdc5a128c2f19eb93ccc37e9fc4fa15e63d6fb279f07a2"),
    ("ex_third", "expand6"): (0, "70344e80e0ee75f0aca00b12781d11e9df20c2227d95865ee9cab754aaa6b7d6"),
    ("ex_third", "rgfull"): (0, "727f27bdfa87a16b78a779879ea50590273d9cc782f137bc4d5bc24343203496"),
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
        "ex_cd_direct.csv": "5e28e4959fa6c20e18845ff824633c9ce71dd95a6744a4bd35afcae2d3f56209",
        "ex_cd_direct.svg": "be23df7e288175506a271f89234072b816896795863c6f4aa9c9360970d1bd33",
        "ex_cd_overlay.svg": "8c40624f89bcd2cf9c32d8bada8b6cbff4335746e68686068eabf5468dffa138",
        "ex_cd_reconstruction.csv": "fc2e671d20719360495ebcd872da83bc71b67970668cffe29259c6d057105f0d",
        "ex_cd_rg.svg": "199225e0134fbc111e468f5249c281599c5f680cfba16b3c78b7b92310e9acf5",
        "ex_cd_rg_polar.csv": "79082ad06648b75d9e1ef6c3b33cf0293d4b676cb786d1b90438334c67d61fcd",
    },
    "settings": {
        "stdout": "e07982cf7562d09d03e2bb4cfa447b58289ba8361f2dee95e4558011f67b15d5",
        "ex_cd_direct.csv": "64876e1c6593c9247d154dd55f890aef88d0e55f56a247d4e62e11896cca7acf",
        "ex_cd_direct.svg": "699e2c7d60f091def4ec3140f49e572c96c2824ee45d33e79da5e13d719bb8cd",
        "ex_cd_overlay.svg": "9812dec1976a139df70c798b06d57a751f13595bca42e87ae31a8436f792adcf",
        "ex_cd_reconstruction.csv": "8c02a826c2a57cb475b8e1c9bf839e547b598472e91fcc734a205e4a9ecc8e83",
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


TWO_MODE = "two_mode.json"
TWO_MODE_DOC = {
    "class": "semisimple", "linear_part": [1, -1], "order": 4,
    "V": ["E*y1^2 + y1*y2 + E^-1*y2 + E*y2^2", "E^-1*y2^2 + y1*y2 + E*y1 + E^-1*y1^2"],
}
TWO_MODE_GOLDEN = {
    "stdout": "01cdab9990ae2c28b7b5f59d1458a040a15b8340c98889c77b3228428f650966",
    "two_mode.json_direct.csv": "0ae29d69d45c35f58ecd4cfd3b59e132eeef3636818d85c8c523e0a39ade917b",
    "two_mode.json_direct.svg": "fc46f3b21085af0a77732366780811ca9ab41b99a690862c49c8c95b934bedc9",
    "two_mode.json_overlay.svg": "b1766019c1fcddb9e22f72293bce8d8a28856186e5c155c74b1637a784226197",
    "two_mode.json_reconstruction.csv": "a9915a399c314584fbc0d149b30a37280a573ce049de2a1a2a20e852675bbaf8",
    "two_mode.json_rg.svg": "37fd058f8c2f0d47a2bd519c18c7c5d7ceabc7076e3429a14daf584beed667c3",
    "two_mode.json_rg_polar.csv": "5e85e3553cd5958d16f03a4509eed50bcfa1e59f892b691d2ab50fa1658aa8f7",
}


def test_two_mode_artifacts_are_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / TWO_MODE).write_text(json.dumps(TWO_MODE_DOC))
    code = main(["simulate", "--spec", TWO_MODE, "--eps", "0.05", "--t-end", "30",
                 "--out-dir", "out"])
    assert code == 0
    got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for path in sorted((tmp_path / "out").iterdir()):
        got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == TWO_MODE_GOLDEN


def test_two_mode_overflow_message(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / TWO_MODE).write_text(json.dumps(TWO_MODE_DOC))
    code = main(["simulate", "--spec", TWO_MODE, "--eps", "0.25", "--out-dir", "out"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == "error: numeric overflow: state became non-finite at t=6.53\n"
    assert not (tmp_path / "out").exists()


TRAJ_EPS, TRAJ_T_END, TRAJ_DT = 0.25, 2.0, 0.01
TRAJ_PARAMS = {"alpha": 0.7, "beta": -1.3, "mu": 0.45}
# spec -> initial state of the direct equation
TRAJ_Y0 = {
    "ex_bt": [0.4 - 0.1j, -0.2 + 0.3j],
    "ex_third": [0.5 + 0j, 0.1j, -0.2 + 0j],
    "ex_scalar1": [0.6 - 0.2j],
    "ex_oscillators": [0.3 + 0.2j, 0.3 - 0.2j, -0.25 + 0.1j, -0.25 - 0.1j],
    # (d/dt + i)^2: the only case whose companion form has nonzero coefficients
    "random-scalar-18": [0.3 + 0.1j, -0.2 + 0.4j],
}

# (spec, stage) -> SHA-256 of the trajectory's states (complex128 bytes)
TRAJECTORY_GOLDEN = {
    ("ex_bt", "integrate_ode"): "54a2ea73d7430be30e2726be51209b6d8d12d09d6fcebe7a44b8ce895db01f64",
    ("ex_bt", "integrate_rg"): "7bb7a856fa394314522dd1ac7c74d8807adf2299c7bcb51add333903267a3cb3",
    ("ex_bt", "reconstruct"): "7d0f438d65d81a580101691005f08a04b89c9d81d93e569b9856711fc7e3f1fc",
    ("ex_oscillators", "integrate_ode"): "6725f13a4c58af66bd4778c09581e03549a35bde9e3754013494d9baea12da1b",
    ("ex_oscillators", "integrate_rg"): "c102e37274771f4b79b9d1c9d3a00ae2f4567c891063e16c823068ee562e1fc9",
    ("ex_oscillators", "reconstruct"): "35da9e74ac27486ccdb01e622d0839bebbf80e4525ed8c450208ec97331afa30",
    ("ex_oscillators", "integrate_polar"): "fcb82bc59627760eea78eb39a21da1e70afd1a690e2dd3d6f1f23d85e5276df0",
    ("ex_oscillators", "reconstruct_polar"): "d5b64872fe696098592948a90785063d285af01b70b6c95a6a46bb78ecd45fa5",
    ("ex_scalar1", "integrate_ode"): "005b67c41d16fa49799e3f6b6be394fd7de4d964e09a29923a9c9380eccf5328",
    ("ex_scalar1", "integrate_rg"): "16e73427d1a2ab87c7acbe08282e4ec6bf531076a11d8e919c8b9704070ec2a1",
    ("ex_scalar1", "reconstruct"): "16e73427d1a2ab87c7acbe08282e4ec6bf531076a11d8e919c8b9704070ec2a1",
    ("ex_third", "integrate_ode"): "99c72fec5d58eb7dfc589acaf64d28e25f6a2bd59f6bf92519b3ba0584b8fe81",
    ("ex_third", "integrate_rg"): "65ff57b0722526ab5ea9b26bee840e2d4344f56080dc9bf1064ef58ac7b07d65",
    ("ex_third", "reconstruct"): "af2a07e1cb85b1d64a050e95192cf0320a65d59924b131a5b923a1a4cf931c56",
    ("random-scalar-18", "integrate_ode"): "73f08a1aaa51958034a3fad6b66ac46ecd09f576f6d42e83946db1edeaca12f1",
    ("random-scalar-18", "integrate_rg"): "3db1068b95a454ca9dfb38118c6cd79faa0caedea5845921c7ebfad44b877dcd",
    ("random-scalar-18", "reconstruct"): "dfbed173e54894e9a3d084ccd11faafb037f46070d3acdd668f74d198f24afac",
}


def _states_sha(traj):
    assert np.all(np.isfinite(traj.states))
    return hashlib.sha256(np.ascontiguousarray(traj.states).tobytes()).hexdigest()


def _trajectory_shas(name):
    if name.startswith("random-"):
        _, klass, seed = name.split("-")
        spec = random_spec(klass, int(seed))
    else:
        spec = load_builtin(name)
    params = {p: TRAJ_PARAMS[p] for p in spec.params}
    table = expand_table(spec)
    rg = derive_rg(table)
    ren = renormalized_expansion(table)
    run = (TRAJ_EPS, TRAJ_T_END, TRAJ_DT)
    direct = integrate_ode(spec, np.array(TRAJ_Y0[name]), *run, params)
    a0 = np.linspace(0.2, 0.5, len(rg.ctx.amplitudes)) * (1 + 0.5j)
    flow = integrate_rg(rg, a0, *run, params=params)
    out = {
        "integrate_ode": _states_sha(direct),
        "integrate_rg": _states_sha(flow),
        "reconstruct": _states_sha(reconstruct(ren, flow, TRAJ_EPS, params=params)),
    }
    if name == "ex_oscillators":
        polar = polar_transform(rg, [(0, 1), (2, 3)])
        flow = integrate_polar(polar, [1.3, 0.8], [2.1, -0.4], *run, eps_order=4)
        out["integrate_polar"] = _states_sha(flow)
        out["reconstruct_polar"] = _states_sha(
            reconstruct(ren, flow, TRAJ_EPS, pairs=2, eps_order=2))
    return out


@pytest.mark.parametrize("name", sorted(TRAJ_Y0))
def test_trajectory_states_are_bit_identical(name):
    want = {stage: sha for (spec, stage), sha in TRAJECTORY_GOLDEN.items() if spec == name}
    assert _trajectory_shas(name) == want
