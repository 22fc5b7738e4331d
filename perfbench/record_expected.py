"""Record the output digests the workload checks compare against.

    python3 perfbench/record_expected.py

Runs every workload once at workloads.DEFAULT_SEED, untimed and in this
interpreter, and writes perfbench/expected.json.  It refuses to record
when any independent check (Sylvester reference, closed forms) fails.
Re-record only when a change to disckit's output is intended, and say
so in that change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import disckit  # noqa: E402
import disckit.cli  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    os.environ["DISCKIT_THREADS"] = "1"
    seed = workloads.DEFAULT_SEED
    expected: dict = {"interactive_seed": seed}
    for workload in worker.RUNNERS:
        jobs = workloads.make_jobs(workload, seed)
        outputs, errors, _, _ = worker.run_pass(disckit, workload, jobs)
        failures = worker.check_pass(workload, jobs, outputs, errors, seed, {})
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        expected[workload] = {
            str(job.get("key", job.get("id"))):
                workloads.digest(workloads.output_text(workload, out))
            for job, out in zip(jobs, outputs)
        }
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
