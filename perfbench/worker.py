"""One pass of one workload, in the fresh interpreter run.py starts.

    python3 perfbench/worker.py --root ROOT --workload W --seed N --launched T
        [--trace SPANS_PATH] [--setup-only] [--check]

Set-up (importing disckit, installing the tracer, making the inputs)
ends at the first timed operation; its length is measured from T, the
``time.monotonic()`` reading run.py took just before starting this
interpreter.  The timed pass runs every job once, with a short
calibration loop between jobs (see run_pass); with --check the outputs
are then checked outside the timed region.  Every pass reports a
digest per operation, so run.py can hold the other passes to the checked
one.  The last line of stdout is one JSON object describing the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import statistics
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def run_symbolic(disckit, job):
    jets = disckit.jets
    if job["kind"] == "disc_ideal":
        return jets.discriminant_ideal(job["d"], job["l"], jets.ChartId(job["i"], job["patch"]))
    if job["kind"] == "homogeneous":
        return jets.homogeneous_classical_discriminant(job["d"])
    return jets.chart_consistency(job["d"], job["l"], job["i"])


def run_oracle(disckit, job):
    return disckit.oracle.verify_discriminant_locus(job["d"], job["l"], job["q"])


def run_interactive(disckit, job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = disckit.cli.main(list(job["argv"]))
        except SystemExit as exc:  # argparse reports usage errors this way
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


RUNNERS = {"symbolic": run_symbolic, "oracle": run_oracle, "interactive": run_interactive}
CALIBRATE_EVERY_S = 0.05
SETUP_CALIBRATIONS = 5


def calibration() -> float:
    """Seconds taken by a fixed pure-Python loop of dict and tuple work.

    The loop does not touch disckit and runs with the garbage collector
    off, so its time follows the host's speed, not the program's heap.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(4000):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + i * 3 % 7
        return time.perf_counter() - t0
    finally:
        gc.enable()


def render(workload: str, job: dict, result):
    """Plain data of one result, the form the checks and digests read."""
    if workload == "interactive":
        return result
    if job["kind"] == "disc_ideal":
        return {"ring": str(result.ring), "gens": [str(g) for g in result.gens]}
    if job["kind"] == "homogeneous":
        return {"ring": str(result.ring), "gens": [str(result)]}
    if job["kind"] == "chart_consistency":
        return {"rows": [vars(r).copy() for r in result]}
    rep = {k: v for k, v in vars(result).items() if k != "chart"}
    for k in ("mismatches", "soundness_mismatches", "completeness_mismatches"):
        rep[k] = [list(p) for p in rep[k]]
    return rep


def run_pass(disckit, workload: str, jobs: list[dict], tracer=None):
    """Run every job once, timing each.

    Before a job, whenever CALIBRATE_EVERY_S has passed since the last
    one, and after the last job, the pass times calibration(); each job
    is paired with the mean of the calibrations just before and just
    after it, which saw the same host speed.  Returns (outputs, errors,
    per-job seconds, per-job calibration seconds).
    """
    runner = RUNNERS[workload]
    results, errors, times = [], [], []
    marks: list[tuple[int, float]] = []  # (index of the next job, calibration seconds)
    perf = time.perf_counter
    last_mark = -CALIBRATE_EVERY_S
    for n, job in enumerate(jobs):
        if perf() - last_mark >= CALIBRATE_EVERY_S:
            marks.append((n, calibration()))
            last_mark = perf()
        if tracer is not None:
            tracer.current_request = n
        t0 = perf()
        try:
            results.append(runner(disckit, job))
            errors.append(None)
        except Exception as exc:  # counted as a failed operation, the pass goes on
            results.append(None)
            errors.append(f"raised {exc!r}")
        times.append(perf() - t0)
    marks.append((len(jobs), calibration()))
    cals = []
    for (start, before), (end, after) in zip(marks, marks[1:]):
        cals.extend([(before + after) / 2] * (end - start))
    outputs = [None if r is None else render(workload, job, r) for job, r in zip(jobs, results)]
    return outputs, errors, times, cals


def check_pass(workload: str, jobs, outputs, errors, seed: int, expected: dict) -> list[str]:
    """One line per failed operation."""
    failures = []
    for job, out, err in zip(jobs, outputs, errors):
        problem = err or workloads.check(workload, job, out, seed, expected)
        if problem:
            failures.append(f"{job.get('key', job.get('argv'))}: {problem}")
    return failures


def op_digests(workload: str, outputs) -> list[str]:
    """Digest of each operation's output, for comparing passes op by op."""
    return [workloads.digest("raised" if out is None else workloads.output_text(workload, out))
            for out in outputs]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--trace", default=None, help="write spans to this path")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check", action="store_true", help="check every output")
    args = ap.parse_args(argv)

    import disckit
    import disckit.cli

    src = (Path(args.root) / "src").resolve()
    if src not in Path(disckit.__file__).resolve().parents:
        print(f"disckit was imported from {disckit.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(disckit)
    jobs = workloads.make_jobs(args.workload, args.seed)
    setup_s = time.monotonic() - args.launched
    setup_cal = statistics.median(calibration() for _ in range(SETUP_CALIBRATIONS))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cal_s": setup_cal}))
        return 0

    outputs, errors, times, cals = run_pass(disckit, args.workload, jobs, tracer)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        layers = tracer.metrics()
        tracer.write(args.trace)
    failures = []
    if args.check:
        failures = check_pass(args.workload, jobs, outputs, errors, args.seed,
                              workloads.load_expected())
    out_bytes = 0
    if args.workload == "interactive":
        out_bytes = sum(len(out) + len(err) for _rc, out, err in filter(None, outputs))
    print(json.dumps({
        "setup_s": setup_s,
        "setup_cal_s": setup_cal,
        "job_s": times,
        "job_cal_s": cals,
        "job_keys": [job.get("key") for job in jobs],
        "peak_rss_mib": rss_mib,
        "attempted": len(jobs),
        "failures": failures,
        "op_digests": op_digests(args.workload, outputs),
        "out_bytes": out_bytes,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
