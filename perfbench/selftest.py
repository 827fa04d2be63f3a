"""Self-test of the benchmark: exact counts repeat across traced runs.

    python3 perfbench/selftest.py

Runs every workload twice with --trace 1 and the same seed, in separate
processes, and requires identical values for every exact count
(tracing.EXACT: Q(i) operations, MultiPoly.mul pairs and kept ratio, table
terms, RK4 field evaluations, ...).  Also prints the tracing overhead of
each run, traced wall time / untraced wall time, as information.  Exits 1
on any difference or failed run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1
# one untraced and one traced batch per run
SECONDS = 1


def traced_run(workload: str) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    info = json.loads(lines[-2].removeprefix("info "))
    result = json.loads(lines[-1])
    return result, info


def main() -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        runs = [traced_run(workload) for _ in range(2)]
        counts = [{k: r["metrics"][k]["value"] for k in tracing.EXACT} for r, _ in runs]
        differ = [k for k in tracing.EXACT if counts[0][k] != counts[1][k]]
        correct = all(r["correct"] for r, _ in runs)
        overhead = ", ".join(f"{info['tracing_overhead']:.3f}" for _, info in runs)
        print(f"{workload}: counts {'differ: ' + str(differ) if differ else 'identical'}; "
              f"correct={correct}; tracing overhead {overhead}")
        ok = ok and correct and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
