"""The rgperturb benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that has `src/rgperturb`; it works in
the checkout root.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones.  Lines before the last
are information for a reader (`info {...}`); the last line is the result
(with `--workload all`, each workload prints its own info and result lines):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts jobs run, `failed` counts jobs whose output differs from
its golden or whose golden verdict was PASS and now is not (each is named
on stderr with the command that reproduces it).  The program's own FAIL
verdicts are in the `pass_frac` metric.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# setup_s is the median of this many fresh interpreters, half timed before
# the batches and half after, so that they see more of the machine's drift
SETUP_REPS = 8
CHILD_TIMEOUT = 170


def child(env, *argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *argv],
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT, check=True)


def time_setup(env, workload: str, seed: str) -> float:
    start = time.perf_counter()
    child(env, "setup", workload, seed)
    return time.perf_counter() - start


def end_to_end(jobs: list, result: dict, setup_times: list) -> tuple:
    # Each job's median over the run first: wall_s is the batch at those
    # medians (a run may end inside a batch) and job_s.p50 the median job,
    # which on a batch of two kinds of job (expand_cd) does not flip between
    # them.  A job passes when every run of it passed; counting runs instead
    # would move pass_frac with how many runs each job got in the run.
    per_job, passed = {}, {}
    for j in jobs:
        per_job.setdefault(j["id"], []).append(j["s"])
        passed[j["id"]] = passed.get(j["id"], True) and j["passed"]
    typical = [statistics.median(t) for t in per_job.values()]
    metrics = {
        "wall_s": sum(typical),
        "job_s.p50": statistics.median(typical),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["rss_mb"],
        "pass_frac": sum(passed.values()) / len(passed),
    }
    info = {"batch_wall_s": [b["wall_s"] for b in result["batches"] if b["complete"]],
            "job_samples": len(jobs), "samples_per_job": [min(map(len, per_job.values())),
                                                          max(map(len, per_job.values()))],
            "setup_s": setup_times}
    # a percentile is reported only with at least ten jobs beyond it
    if len(typical) >= 100:
        info["job_s.p90"] = statistics.quantiles(typical, n=10)[8]
    return metrics, info


def judge(jobs: list, goldens: dict) -> None:
    """Mark each job run `failed` (a benchmark failure: no golden, output
    that differs from it, or a golden PASS that no longer passes) and
    `passed` (the program's own verdict is PASS and the job did not fail)."""
    for j in jobs:
        golden = goldens.get(j["id"])
        j["failed"] = (golden is None or j["sha256"] != golden["sha256"]
                       or (golden["ok"] and not j["ok"]))
        j["passed"] = j["ok"] and not j["failed"]


def per_layer(result: dict) -> tuple:
    traced = [b for b in result["batches"] if b["traced"]]
    untraced = [b for b in result["batches"] if not b["traced"]]
    layers = [b["layers"] for b in traced]
    metrics = {}
    unstable = []
    for name in tracing.METRICS:
        values = [lay[name] for lay in layers]
        if name in tracing.EXACT:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
        else:
            metrics[name] = statistics.median(values)
    overhead = (statistics.median(b["wall_s"] for b in traced)
                / statistics.median(b["wall_s"] for b in untraced))
    info = {"traced_batches": len(traced), "tracing_overhead": overhead,
            "unstable_counts": unstable}
    return metrics, info


def run_workload(env, declared, workload: str, seed: str, seconds: str, trace: bool) -> int:
    """Run one workload in child processes; print its info and result lines."""
    try:
        setup_times = []
        if not trace:
            # the first interpreter also writes the bytecode caches; not timed
            child(env, "setup", workload, seed)
            setup_times += [time_setup(env, workload, seed) for _ in range(SETUP_REPS // 2)]
        proc = child(env, "run", workload, seed, seconds, str(int(trace)))
        if not trace:
            setup_times += [time_setup(env, workload, seed) for _ in range(SETUP_REPS // 2)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: child process failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])

    jobs = [j for b in result["batches"] for j in b["jobs"]]
    judge(jobs, workloads.load_goldens())
    if trace:
        metrics, info = per_layer(result)
    else:
        metrics, info = end_to_end(jobs, result, setup_times)
    failed = sum(j["failed"] for j in jobs)
    argvs = {job.id: job.argv for job in workloads.build_jobs(workload, int(seed))}
    for job_id in sorted({j["id"] for j in jobs if j["failed"]}):
        print(f"perfbench: job {job_id} differs from its golden; rerun it with "
              f"`PYTHONPATH=src python3 -m rgperturb.cli {' '.join(argvs[job_id])}`",
              file=sys.stderr)
    info["workload"] = workload
    info["program_fail_jobs"] = sorted({j["id"] for j in jobs if not j["passed"]})
    info["ref_loop_s"] = result["ref_loop_s"]
    print("info " + json.dumps(info))

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 1
    correct = failed == 0 and not info.get("unstable_counts")
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all four in turn (one result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rgperturb", "cli.py")):
        print(f"perfbench: no rgperturb sources in {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    os.chdir(ROOT)
    workloads.prepare_work_dir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    selected = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(env, declared, w, str(args.seed), str(args.seconds), bool(args.trace))
               for w in selected)


if __name__ == "__main__":
    sys.exit(main())
