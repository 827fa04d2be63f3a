"""The benchmark's workloads: batches of rgperturb CLI jobs built from a seed.

Why each workload exists, what it exercises and what it bypasses is in
README.md next to this file.  A job is an argv for `rgperturb.cli.main`;
its stdout is reduced to a digest and compared with the golden recorded
by `record_goldens.py`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")
RANDOM_POOL = os.path.join(HERE, "random_pool.json")

# Relative to the checkout root, which is the working directory of a run.
WORK_DIR = ".perfbench_work"
SIM_DIR = os.path.join(WORK_DIR, "simulate_cd")
COSINE_SPEC = os.path.join(WORK_DIR, "cosine_difference.json")
# ex_difference at order 6 needs window >= 12; the built-in keeps 10.
COSINE_DOC = {"class": "difference", "alpha": [[2, "1"], [-2, "1"]],
              "order": 6, "window": 16}

WORKLOADS = ("verify_cd", "expand_cd", "verify_mixed", "simulate_cd")

RANDOM_CLASSES = ("semisimple", "nilpotent", "scalar")
RANDOM_ORDER = 3
POOL_SIZE = 1000     # random seeds 0..POOL_SIZE-1 per class have goldens
STRATUM = 10         # one draw per STRATUM pool entries of similar cost
# Known numeric_smoke false failures: every exact check passes, the
# heuristic still prints FAIL.  Always in verify_mixed, never re-seeded.
PINNED = (("nilpotent", 35, 3), ("nilpotent", 28, 4))

MIXED_BUILTINS = (("ex_bt", 3), ("ex_third", 4), ("ex_oscillators", 4), ("ex_scalar1", 8))


class Job(NamedTuple):
    id: str
    argv: list
    kind: str  # "machine": sha of stdout; "lines": sha of the line set


def random_job(klass: str, seed: int, order: int) -> Job:
    return Job(f"verify:random-{klass}-{seed}:{order}",
               ["verify", "--random", klass, "--seed", str(seed), "--order", str(order)],
               "lines")


def _builtin_verify(name: str, order: int) -> Job:
    return Job(f"verify:{name}:{order}",
               ["verify", "--builtin", name, "--order", str(order)], "lines")


def fixed_jobs(workload: str) -> list:
    """The jobs of a workload that do not depend on the seed."""
    if workload == "verify_cd":
        return [_builtin_verify("ex_cd", 8)]
    if workload == "expand_cd":
        return [Job(f"{cmd}:ex_cd:10",
                    [cmd, "--builtin", "ex_cd", "--order", "10", "--format", "machine"],
                    "machine")
                for cmd in ("expand", "rg")]
    if workload == "verify_mixed":
        jobs = [_builtin_verify(name, order) for name, order in MIXED_BUILTINS]
        jobs.append(Job("verify:cosine_difference:6", ["verify", "--spec", COSINE_SPEC],
                        "lines"))
        jobs += [random_job(*pin) for pin in PINNED]
        return jobs
    if workload == "simulate_cd":
        return [Job("simulate:ex_cd:200",
                    ["simulate", "--builtin", "ex_cd", "--t-end", "200", "--out-dir", SIM_DIR],
                    "lines")]
    raise ValueError(f"unknown workload {workload!r}")


def build_jobs(workload: str, seed: int) -> list:
    """The workload's batch for this seed.

    verify_mixed draws one random spec per stratum of each class's pool;
    strata group pool seeds of similar recorded cost, so the specs change
    with the seed while the batch's total work stays about the same.
    """
    jobs = fixed_jobs(workload)
    if workload == "verify_mixed":
        rng = random.Random(seed)
        with open(RANDOM_POOL) as fh:
            pools = json.load(fh)
        for klass in RANDOM_CLASSES:
            pool = pools[klass]
            for i in range(0, len(pool), STRATUM):
                s, _cost = rng.choice(pool[i:i + STRATUM])
                jobs.append(random_job(klass, s, RANDOM_ORDER))
        # jobs of similar cost then run spread over the whole batch, so the
        # median job time averages the machine's speed over the batch
        rng.shuffle(jobs)
    return jobs


def prepare_work_dir() -> None:
    os.makedirs(SIM_DIR, exist_ok=True)
    with open(COSINE_SPEC, "w") as fh:
        json.dump(COSINE_DOC, fh)


def digest(job: Job, out: str) -> str:
    """SHA-256 of the machine output, or of the sorted set of output lines.

    The numeric_smoke line is left out of the line set: it is judged by the
    PASS/FAIL rule alone, so a later fix of its false failures changes the
    verdict without breaking the golden.
    """
    if job.kind == "machine":
        data = out
    else:
        lines = {ln for ln in out.splitlines() if " numeric_smoke " not in ln}
        data = "\n".join(sorted(lines))
    return hashlib.sha256(data.encode()).hexdigest()


def verdict(rc, out: str) -> bool:
    """The program's own verdict: exit 0 and no FAIL line."""
    return rc == 0 and not any(ln.startswith("FAIL") for ln in out.splitlines())


def load_goldens() -> dict:
    """Job id -> {"sha256": digest, "ok": verdict} at the recording commit."""
    with open(GOLDENS) as fh:
        return json.load(fh)
