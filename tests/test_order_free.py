"""No output depends on the insertion order of a table's maps.

Every secular table the commands build is replaced, before anything reads
it, by the same table with its harmonics and each polynomial's terms
reinserted in a random order.  The stdout of `expand`, `rg` and `verify`
(the FAIL details and the numeric smoke line included) and every `simulate`
artifact must be the same bytes as without the shuffle.
"""

import contextlib
import hashlib
import io
import pathlib
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from rgperturb import cli, engine
from rgperturb.engine import SecularTable
from rgperturb.poly import HarmonicSeries, MultiPoly


def shuffled(table: SecularTable, rng: random.Random) -> SecularTable:
    """The same table, every entry map and term map in a random insertion order."""
    def poly(p):
        items = list(p.packed.items())
        rng.shuffle(items)
        return MultiPoly(p.ctx, dict(items))

    def series(hs):
        ms = list(hs.entries)
        rng.shuffle(ms)
        return HarmonicSeries(hs.ctx, {m: poly(hs.entries[m]) for m in ms})

    return SecularTable(table.spec, table.ctx, [series(c) for c in table.components],
                        table.resonant, label=table.label)


COMMANDS = [
    ["expand", "--builtin", "ex_cd", "--format", "machine"],
    ["expand", "--builtin", "ex_third"],
    ["rg", "--builtin", "ex_bt", "--format", "machine"],
    ["rg", "--builtin", "ex_cd", "--polar", "1:2", "--expansion", "--inversion"],
    ["rg", "--builtin", "ex_oscillators", "--polar", "1:2,3:4"],
    ["verify", "--builtin", "ex_cd"],
    ["verify", "--builtin", "ex_bt", "--corrupt"],
    ["verify", "--builtin", "ex_cd", "--corrupt"],
    ["verify", "--builtin", "ex_oscillators", "--corrupt"],
    ["verify", "--builtin", "ex_third", "--corrupt"],
    ["verify", "--builtin", "ex_scalar1"],
    ["verify", "--random", "nilpotent", "--seed", "3", "--corrupt"],
    ["verify", "--random", "scalar", "--seed", "4", "--order", "4"],
    ["verify", "--random", "semisimple", "--seed", "6", "--corrupt"],
]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def simulate():
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = pathlib.Path(tmp)
        code, stdout = run(["simulate", "--builtin", "ex_cd", "--t-end", "5",
                            "--ren-order", "4", "--out-dir", tmp])
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(out_dir.iterdir())}
    return code, stdout.replace(tmp, "OUT"), files


UNSHUFFLED = {}  # command -> (exit code, stdout) of the plain table


def plain(argv):
    key = " ".join(argv)
    if key not in UNSHUFFLED:
        UNSHUFFLED[key] = run(argv) if argv[0] != "simulate" else simulate()
    return UNSHUFFLED[key]


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_command_output_ignores_insertion_order(seed):
    expand = engine.expand_table
    for argv in COMMANDS:
        want = plain(argv)
        rng = random.Random(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "expand_table",
                       lambda spec, label="": shuffled(expand(spec, label), rng))
            assert run(argv) == want, " ".join(argv)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_simulate_artifacts_ignore_insertion_order(seed):
    want = plain(["simulate"])
    expand = engine.expand_semisimple
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        # the pipeline imports the engine when it runs
        mp.setattr(engine, "expand_semisimple",
                   lambda spec, label="": shuffled(expand(spec, label), rng))
        assert simulate() == want
