"""Tests of the benchmark itself (not of disckit).

    python3 -m unittest discover -s perfbench/tests

They import disckit from src/ of the same checkout and start two
short-lived interpreters: one traces a few requests (so the package in
the test process stays unwrapped), one is a pass stopped at its limit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import disckit  # noqa: E402
import disckit.cli  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _first_of_each_family(jobs, per_family):
    seen, out = Counter(), []
    for job in jobs:
        if seen[job["family"]] < per_family:
            seen[job["family"]] += 1
            out.append(job)
    return out


def _fake_pass(**extra):
    base = {"setup_s": 0.1, "setup_cal_s": run.CALIBRATION_REF_S,
            "job_s": [0.001 * k for k in range(1, 201)],
            "job_cal_s": [run.CALIBRATION_REF_S] * 200,
            "job_keys": [None] * 200, "peak_rss_mib": 20.0, "attempted": 200,
            "failures": [], "op_digests": ["d"] * 200, "out_bytes": 10, "layers": None}
    base.update(extra)
    return base


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_benchmark_json_lists_the_emitted_metrics_and_units(self):
        for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in self.spec[section]}
            self.assertEqual(declared, table, section)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_untraced_run_emits_every_end_to_end_metric(self):
        r = run.Run("interactive", 0, 0)
        r.untraced = [_fake_pass(), _fake_pass()]
        r.setups = [0.1, 0.2, 0.3]
        self.assertEqual(set(r.end_to_end()), set(run.END_TO_END))

    def test_traced_run_emits_every_per_layer_metric(self):
        with tempfile.TemporaryDirectory() as tmp:
            spans_path = Path(tmp) / "spans"
            snippet = (
                "import json, sys\n"
                f"sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]\n"
                "import disckit, disckit.cli, tracer, worker, workloads\n"
                "t = tracer.Tracer(); t.install(disckit)\n"
                "jobs = workloads.make_jobs('interactive', 0)[:60]\n"
                "worker.run_pass(disckit, 'interactive', jobs, t)\n"
                f"t.write({str(spans_path)!r})\n"
                "print(json.dumps(t.metrics()))\n"
            )
            env = dict(os.environ, DISCKIT_THREADS="1")
            out = subprocess.run([sys.executable, "-S", "-c", snippet], env=env, cwd=ROOT,
                                 capture_output=True, text=True, timeout=120, check=True)
            spans = tracer.read_spans(spans_path)
        layers = json.loads(out.stdout.splitlines()[-1])
        self.assertGreater(layers["rings.mul.calls"], 0)
        self.assertGreater(layers["parser.calls"], 0)
        mains = [s for s in spans if s[0] == "cli.main"]
        self.assertEqual(len(mains), 60)
        self.assertEqual([s[4] for s in mains], list(range(60)))  # one request id each
        self.assertTrue(all(s[3] == -1 and s[1] <= s[2] for s in mains))
        r = run.Run("interactive", 0, 0)
        r.untraced = [_fake_pass()]
        r.traced = [_fake_pass(layers=layers)]
        r.parallel = [_fake_pass()]
        self.assertEqual(set(r.per_layer()), set(run.PER_LAYER))


class Checks(unittest.TestCase):
    def test_correct_outputs_pass_every_check(self):
        jobs = _first_of_each_family(workloads.make_jobs("interactive", 3), 6)
        outputs, errors, _, _ = worker.run_pass(disckit, "interactive", jobs)
        self.assertEqual(worker.check_pass("interactive", jobs, outputs, errors, 3, {}), [])

    def test_corrupted_expected_digest_counts_as_a_failure(self):
        jobs = [j for j in workloads.make_jobs("symbolic", 0) if j["d"] <= 3][:4]
        outputs, errors, _, _ = worker.run_pass(disckit, "symbolic", jobs)
        expected = {"symbolic": {jobs[0]["key"]: "0" * 16}}
        failures = worker.check_pass("symbolic", jobs, outputs, errors, 0, expected)
        self.assertEqual(len(failures), 1)
        self.assertIn("digest", failures[0])

    def test_corrupted_output_value_counts_as_a_failure(self):
        jobs = [j for j in workloads.make_jobs("symbolic", 0)
                if j["kind"] == "disc_ideal" and j["d"] == 3][:1]
        outputs, errors, _, _ = worker.run_pass(disckit, "symbolic", jobs)
        outputs[0]["gens"][0] += " + 1"
        failures = worker.check_pass("symbolic", jobs, outputs, errors, 0, {})
        self.assertEqual(len(failures), 1)
        self.assertIn("Sylvester reference", failures[0])

    def test_wrong_answer_and_raised_error_are_counted_not_raised(self):
        jobs = [j for j in workloads.make_jobs("interactive", 0)
                if j["kind"] == "resultant_ZZ"][:2]
        outputs, errors, _, _ = worker.run_pass(disckit, "interactive", jobs)
        rc, out, err = outputs[0]
        outputs[0] = (rc, out.replace("resultant: ", "resultant: 1") if jobs[0]["fmt"] == "plain"
                      else out.replace('"resultant": "', '"resultant": "1'), err)
        outputs[1], errors[1] = None, "raised RuntimeError('boom')"
        failures = worker.check_pass("interactive", jobs, outputs, errors, 0, {})
        self.assertEqual(len(failures), 2)

    def test_pass_differing_from_the_checked_pass_counts_per_operation(self):
        r = run.Run("symbolic", 0, 0)
        r.checked = _fake_pass(op_digests=["a", "b", "c"], failures=["x: wrong"])
        r.untraced = [r.checked, _fake_pass(op_digests=["a", "B", "C"])]
        r.traced = [_fake_pass(op_digests=["a", "b", "c"])]
        self.assertEqual(len(r.failures()), 3)

    def test_oracle_closed_forms(self):
        self.assertEqual([reference.mult_root_count(d, l, q) for d, l, q in workloads.ORACLE_CASES],
                         [2209, 47, 289, 2401])

    def test_reference_discriminant_and_evaluator(self):
        b, c = 3, 5
        self.assertEqual(reference.discriminant([c, b, 1], 2), 4 * c - b * b)
        self.assertEqual(reference.evaluate("-u1^2 + 4*u0", {"u0": c, "u1": b}), 4 * c - b * b)
        self.assertEqual(reference.coefficients_in("(2*t - 1)^2", "t", 2, {}), [1, -4, 4])


class Generator(unittest.TestCase):
    def test_interactive_requests_are_deterministic_per_seed(self):
        self.assertEqual(workloads.make_jobs("interactive", 7),
                         workloads.make_jobs("interactive", 7))

    def test_interactive_requests_differ_across_seeds(self):
        a = workloads.make_jobs("interactive", 7)
        b = workloads.make_jobs("interactive", 8)
        self.assertNotEqual([j["argv"] for j in a], [j["argv"] for j in b])

    def test_interactive_mix_is_fixed(self):
        jobs = workloads.make_jobs("interactive", 11)
        self.assertEqual(Counter(j["kind"] for j in jobs),
                         {kind: count for kind, _, count in workloads.MIX})
        self.assertEqual(sum(j["fmt"] == "json" for j in jobs), len(jobs) // 2)
        malformed = [j for j in jobs if j["kind"] == "malformed"]
        self.assertTrue(all(j["expect_rc"] in (2, 3, 4) for j in malformed))

    def test_fixed_grids_are_only_shuffled(self):
        for workload in ("symbolic", "oracle"):
            a, b = workloads.make_jobs(workload, 1), workloads.make_jobs(workload, 2)
            self.assertEqual(sorted(j["key"] for j in a), sorted(j["key"] for j in b))


class WorkerProcesses(unittest.TestCase):
    def test_a_pass_past_the_run_limit_is_stopped(self):
        started = []
        real_popen = run.subprocess.Popen

        def popen(*args, **kwargs):
            started.append(real_popen(*args, **kwargs))
            return started[-1]

        with mock.patch.object(run.subprocess, "Popen", popen):
            with self.assertRaises(run.PassError):
                run.run_worker("symbolic", 0, timeout=1)
        self.assertEqual(len(started), 1)
        self.assertIsNotNone(started[0].poll())

    def test_no_pass_asks_for_more_workers_than_cpus(self):
        envs = []

        class FakePopen:
            def __init__(self, cmd, env, **kwargs):
                envs.append(env)
                self.returncode = 0

            def communicate(self, timeout=None):
                return json.dumps(_fake_pass(layers={})) + "\n", ""

            def poll(self):
                return self.returncode

        for cpus in (1, 2, 64):
            envs.clear()
            with mock.patch.object(run.subprocess, "Popen", FakePopen), \
                    mock.patch.object(run.os, "cpu_count", return_value=cpus):
                r = run.Run("oracle", 0, 0)
                r.measure_traced()
                r.measure()
            self.assertTrue(envs)
            for env in envs:
                self.assertLessEqual(int(env["DISCKIT_THREADS"]), cpus)
            self.assertIn(str(min(2, cpus)), {env["DISCKIT_THREADS"] for env in envs})


if __name__ == "__main__":
    unittest.main()
