"""disckit benchmark: symbolic, oracle and interactive workloads.

    python3 perfbench/run.py --workload {symbolic,oracle,interactive}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: the package under test is ``src/disckit``
of that checkout, imported from source.  Every pass of a workload runs in
a fresh interpreter (perfbench/worker.py).  The first pass checks every
answer; every other pass must reproduce its outputs byte for byte.
Passes repeat until the next one would end after ``--seconds``; then
fresh interpreters that stop at the end of set-up add set-up samples.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
medians over the passes, latency quantiles pooled over every job of every
pass.  Times are scaled to a reference host speed: between jobs a worker
times a fixed calibration loop, and each job's time is multiplied by
CALIBRATION_REF_S over the time of the loop run next to it (scaled()).

With ``--trace 1`` untraced and traced passes alternate, one more
untraced pass runs with DISCKIT_THREADS=2 (capped at the CPU count), and
the last line reports the per-layer metrics; the traced, untraced and
2-worker outputs must be byte-identical.  Spans of the last traced pass
are written to perfbench/out/.  A summary for people goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("symbolic", "oracle", "interactive")
MIN_PASSES = 3
MIN_SETUPS = 15
PARALLEL_WORKERS = 2
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever --seconds says
# Time of worker.calibration()'s loop at the reference speed (its median
# on a 2-CPU x86_64 container running CPython 3.11.7).
CALIBRATION_REF_S = 0.0007

# The end-to-end metrics of an untraced run, with their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}
# The per-layer metrics of a traced run, with their units.
PER_LAYER = {
    "rings.mul.calls": "count", "rings.mul.self_s": "s",
    "rings.exact_div.calls": "count", "rings.exact_div.self_s": "s",
    "rings.addsub.self_s": "s", "rings.peak_terms": "count", "rings.max_coeff_bits": "bits",
    "rings.hom.calls": "count", "rings.hom.self_s": "s",
    "resultants.resultant.calls": "count", "resultants.det.calls": "count",
    "resultants.det.self_s": "s", "resultants.max_matrix_dim": "count",
    "jets.calls": "count", "jets.self_s": "s", "jets.resultant_calls": "count",
    "jets.gen_terms": "count",
    "oracle.points": "count", "oracle.compile_s": "s", "oracle.scan_s": "s",
    "oracle.points_per_s": "1/s", "oracle.mismatches": "count",
    "oracle.parallel_speedup_2w": "x",
    "parser.calls": "count", "parser.chars": "count", "parser.self_s": "s",
    "unipoly.self_s": "s",
    "strata.calls": "count", "strata.self_s": "s", "strata.unit_tests": "count",
    "strata.emitted": "count",
    "dims.calls": "count", "dims.self_s": "s",
    "cli.self_s": "s", "cli.render_s": "s", "cli.out_bytes": "bytes",
    "trace.overhead_frac": "frac",
}


class PassError(RuntimeError):
    pass


def worker_threads(wanted: int) -> int:
    """DISCKIT_THREADS for a pass: never more workers than CPUs."""
    return max(1, min(wanted, os.cpu_count() or 1))


def run_worker(workload: str, seed: int, timeout: float, *, trace: bool = False,
               threads: int = 1, setup_only: bool = False, check: bool = False) -> dict:
    """One pass in a fresh interpreter; returns the JSON it printed."""
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    # Cache bytecode under out/, so set-up loads disckit instead of compiling it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
        PYTHONHASHSEED="0",
        DISCKIT_THREADS=str(worker_threads(threads)),
    )
    # -S: site-packages are not needed (disckit has no dependencies) and
    # their .pth hooks would time the environment, not the program.
    cmd = [sys.executable, "-S", str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", str(OUT / f"{workload}-seed{seed}.spans")]
    if setup_only:
        cmd.append("--setup-only")
    if check:
        cmd.append("--check")
    launched = time.monotonic()
    proc = subprocess.Popen(cmd + ["--launched", repr(launched)], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise PassError(f"a {workload} pass would end the run after {RUN_LIMIT_S} s")
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop the pass and its workers
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise PassError(f"a {workload} pass exited with {proc.returncode}:\n{stderr}")
    return json.loads(stdout.splitlines()[-1])


def scaled(seconds: float, calibration_s: float) -> float:
    """seconds taken at the reference host speed.

    The host's speed drifts by tens of percent within seconds; a loop
    timed in the same process next to the work drifts with it, and
    disckit's code cannot change it, so the ratio removes the drift.
    """
    return seconds * CALIBRATION_REF_S / calibration_s


def job_times(p: dict) -> list[float]:
    return [scaled(t, c) for t, c in zip(p["job_s"], p["job_cal_s"])]


def pass_wall(p: dict) -> float:
    return sum(job_times(p))


class Run:
    """Passes of one workload within a time budget, and what they add up to."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.started = time.monotonic()
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.parallel: list[dict] = []
        self.setups: list[float] = []
        self.checked: dict | None = None

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def fits(self, *kinds: list[dict]) -> bool:
        """Would one more pass of each kind end within the budget?"""
        more = sum(statistics.median(p["took_s"] for p in passes) for passes in kinds)
        return self.elapsed() + more <= self.seconds

    def worker(self, **kind) -> dict:
        return run_worker(self.workload, self.seed, RUN_LIMIT_S - self.elapsed(), **kind)

    def add(self, into: list, **kind) -> None:
        """One more pass; the first of the run checks every answer."""
        began = time.monotonic()
        result = self.worker(check=self.checked is None, **kind)
        result["took_s"] = time.monotonic() - began
        self.checked = self.checked or result
        into.append(result)
        self.setups.append(scaled(result["setup_s"], result["setup_cal_s"]))

    def measure(self) -> None:
        while len(self.untraced) < MIN_PASSES or self.fits(self.untraced):
            self.add(self.untraced)
        self.top_up_setups()

    def measure_traced(self) -> None:
        self.add(self.untraced)
        self.add(self.traced, trace=True)
        self.add(self.parallel, threads=PARALLEL_WORKERS)
        while self.fits(self.untraced, self.traced):
            self.add(self.untraced)
            self.add(self.traced, trace=True)

    def top_up_setups(self) -> None:
        while len(self.setups) < MIN_SETUPS:
            probe = self.worker(setup_only=True)
            self.setups.append(scaled(probe["setup_s"], probe["setup_cal_s"]))

    # ----- results -------------------------------------------------------------

    def passes(self) -> list[dict]:
        return self.untraced + self.traced + self.parallel

    def failures(self) -> list[str]:
        """Failed operations: those of the checked first pass, and in every
        other pass each operation whose output differs from the first's."""
        out = list(self.checked["failures"])
        for p in self.passes():
            out.extend(f"operation {i}: output differs from the checked pass"
                       for i, (a, b) in enumerate(zip(self.checked["op_digests"], p["op_digests"]))
                       if a != b)
        return out

    def attempted(self) -> int:
        return sum(p["attempted"] for p in self.passes())

    @staticmethod
    def wall(passes: list[dict]) -> float:
        return statistics.median(pass_wall(p) for p in passes)

    def end_to_end(self) -> dict:
        jobs = [t for p in self.untraced for t in job_times(p)]
        return {
            "setup_s": statistics.median(self.setups),
            "wall_s": self.wall(self.untraced),
            "req_p50_ms": statistics.median(jobs) * 1e3,
            # inclusive: on the few jobs of symbolic and oracle, never beyond the slowest
            "req_p99_ms": statistics.quantiles(jobs, n=100, method="inclusive")[98] * 1e3,
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in self.untraced),
        }

    def per_layer(self) -> dict:
        layers = [p["layers"] for p in self.traced]
        # median_low: a value one traced pass measured, so counts stay whole
        out = {k: statistics.median_low(lay[k] for lay in layers)
               for k in PER_LAYER if k in layers[0]}
        base = self.wall(self.untraced)
        out["oracle.parallel_speedup_2w"] = base / self.wall(self.parallel)
        out["trace.overhead_frac"] = self.wall(self.traced) / base - 1
        out["cli.out_bytes"] = self.traced[0]["out_bytes"]
        return out

    def summary(self) -> str:
        jobs = [t for p in self.untraced for t in p["job_s"]]
        lines = [
            f"{self.workload} seed={self.seed}: {len(self.untraced)} untraced, "
            f"{len(self.traced)} traced, {len(self.parallel)} 2-worker passes, "
            f"{len(self.setups)} set-ups, {len(jobs)} timed jobs in {self.elapsed():.1f} s",
            "untraced pass walls, raw (s): "
            + " ".join(f"{sum(p['job_s']):.3f}" for p in self.untraced),
            "untraced pass walls, scaled (s): "
            + " ".join(f"{pass_wall(p):.3f}" for p in self.untraced),
        ]
        if len(jobs) >= 2:
            beyond = len(jobs) - int(0.99 * len(jobs))
            lines.append(f"req_p99 has {beyond} of {len(jobs)} samples beyond it")
        if self.workload == "symbolic":
            for key in ("disc_ideal/6/1/6/0", "homogeneous/6"):
                times = [t for p in self.untraced for k, t in zip(p["job_keys"], p["job_s"])
                         if k == key]
                lines.append(f"{key}: raw median {statistics.median(times):.3f} s "
                             f"over {len(times)}")
        failures = self.failures()
        lines.append(f"ops_failed_frac {len(failures) / self.attempted():.6f} "
                     f"({len(failures)} of {self.attempted()})")
        lines.extend(f"FAILED {f}" for f in failures[:20])
        return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "disckit" / "__init__.py").is_file():
        print(f"no disckit sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Let a terminating signal unwind through run_worker, which stops the pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            run.measure_traced()
            metrics, units = run.per_layer(), PER_LAYER
        else:
            run.measure()
            metrics, units = run.end_to_end(), END_TO_END
    except PassError as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    print(run.summary(), file=sys.stderr)
    failures = run.failures()
    print(json.dumps({
        "correct": not failures,
        "attempted": run.attempted(),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
