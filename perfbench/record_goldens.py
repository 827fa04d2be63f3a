"""Record perfbench/goldens.json and random_pool.json from this checkout's src/.

    python3 perfbench/record_goldens.py

Run it only at a commit whose outputs are known good: every later run of
the benchmark compares each job's output with what this records.  For each
job it stores the SHA-256 digest (workloads.digest) and the program's own
verdict.  It also records the random-spec pool of verify_mixed: seeds
0..POOL_SIZE-1 per class, sorted by their count of Q(i) multiplications and
additions, which is the cost the strata of workloads.build_jobs group by.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def record(cli, tracer, job) -> tuple:
    tracer.reset_counts()
    rc, out, _ = child.execute(cli, job)
    tracer.spans.clear()
    cost = tracer.counts["gaussrat.mul_calls"] + tracer.counts["gaussrat.add_calls"]
    return out, rc, cost


def main() -> int:
    os.chdir(ROOT)
    workloads.prepare_work_dir()
    from rgperturb import cli

    tracer = tracing.Tracer()
    tracer.install()
    jobs = {}
    pinned = {workloads.random_job(*pin).id for pin in workloads.PINNED}
    for workload in workloads.WORKLOADS:
        for job in workloads.fixed_jobs(workload):
            out, rc, _ = record(cli, tracer, job)
            jobs[job.id] = {"sha256": workloads.digest(job, out),
                            "ok": workloads.verdict(rc, out)}
    pool = {}
    for klass in workloads.RANDOM_CLASSES:
        costs = []
        for seed in range(workloads.POOL_SIZE):
            job = workloads.random_job(klass, seed, workloads.RANDOM_ORDER)
            if job.id in pinned:
                continue  # always in the batch; drawing it too would repeat it
            out, rc, cost = record(cli, tracer, job)
            jobs[job.id] = {"sha256": workloads.digest(job, out),
                            "ok": workloads.verdict(rc, out)}
            costs.append([seed, cost])
        pool[klass] = sorted(costs, key=lambda sc: (sc[1], sc[0]))
        print(f"{klass}: {len(costs)} seeds recorded", file=sys.stderr)
    failing = sorted(j for j, g in jobs.items() if not g["ok"])
    print(f"jobs whose own verdict is FAIL: {failing}", file=sys.stderr)
    write_json(workloads.GOLDENS, jobs)
    write_json(workloads.RANDOM_POOL, pool)
    return 0


def write_json(path: str, entries: dict) -> None:
    """One entry per line, so that a re-recording diffs entry by entry."""
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                       for k, v in sorted(entries.items()))
    with open(path, "w") as fh:
        fh.write(f"{{\n{body}\n}}\n")


if __name__ == "__main__":
    sys.exit(main())
