"""Child process of the benchmark: one fresh interpreter per measurement.

    child.py setup WORKLOAD SEED
        import rgperturb.cli, parse the workload's specs, exit at once
        (the parent times this from spawn to exit: setup_s).
    child.py run WORKLOAD SEED SECONDS TRACE
        run the workload's batch over and over, one job at a time through
        rgperturb.cli.main, and print one JSON line with each job's time,
        output digest and verdict (run.py compares them with the goldens).
        The first batch always completes; after it, the run stops at the
        job boundary nearest to SECONDS.  With TRACE=1 the first batch runs
        untraced (for the overhead ratio), the rest run under tracing.py,
        and the run stops at a batch boundary instead.

The working directory is the checkout root, `src` is on PYTHONPATH and
run.py has prepared the work directory (workloads.prepare_work_dir).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads


def reference_loop() -> float:
    """A fixed pure-Python loop; its time tracks machine speed, not rgperturb."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def parse_specs(jobs) -> None:
    from rgperturb import checks, cli, systems

    parser = cli.build_parser()
    for job in jobs:
        args = parser.parse_args(job.argv)
        if getattr(args, "random", None):
            doc = checks.random_spec(args.random, args.seed).to_document()
            doc["order"] = args.order
            systems.parse_spec(json.dumps(doc))
        else:
            cli.load_spec(args)


def execute(cli, job) -> tuple:
    """Run one job through the public entry point: (exit code, stdout, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(job.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        traceback.print_exc()
    return rc, buf.getvalue(), time.perf_counter() - start


def run_job(cli, job) -> dict:
    rc, out, seconds = execute(cli, job)
    return {"id": job.id, "s": seconds, "ok": workloads.verdict(rc, out),
            "sha256": workloads.digest(job, out)}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from rgperturb import cli

    jobs = workloads.build_jobs(workload, seed)
    ref_before = sorted(reference_loop() for _ in range(5))[2]

    def due(job_s: float) -> bool:
        return time.perf_counter() - start + job_s / 2 >= seconds

    tracer = None
    batches = []
    start = time.perf_counter()
    done = False
    while not done:
        if trace and batches and tracer is None:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        if tracer is not None:
            tracer.reset_counts()
            first = len(tracer.spans)
        batch_start = time.perf_counter()
        results = []
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = f"{len(batches)}:{job.id}"
            results.append(run_job(cli, job))
            if not trace and (batches or i == len(jobs) - 1) and due(results[-1]["s"]):
                done = True
                break
        batch = {"wall_s": time.perf_counter() - batch_start, "jobs": results,
                 "complete": len(results) == len(jobs), "traced": tracer is not None}
        if tracer is not None:
            batch["layers"] = tracing.layer_metrics(tracer.spans, first, tracer.counts)
            done = due(batch["wall_s"])
        batches.append(batch)

    if tracer is not None:
        tracer.write_spans(os.path.join(workloads.WORK_DIR, f"spans-{workload}.jsonl"))
    ref_after = sorted(reference_loop() for _ in range(5))[2]
    return {
        "batches": batches,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ref_loop_s": [ref_before, ref_after],
    }


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        parse_specs(workloads.build_jobs(workload, seed))
        sys.stdout.flush()
        os._exit(0)
    result = run(workload, seed, float(argv[3]), argv[4] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
