"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

A wrong value must count as a failed job and never be skipped, a name
the traced commit lacks must be reported absent rather than break the
run, and another seed must give rounds of the same shape on other inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
import unittest
from collections import Counter
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import kronlab  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_session  # noqa: E402


def patched(**routes):
    """kronlab's public namespace with some routes replaced."""
    return types.SimpleNamespace(**{**vars(kronlab), **routes})


class CorrectnessGate(unittest.TestCase):
    KRON_JOBS = [{"lam": [3, 1], "mu": [2, 2]}, {"lam": [4, 2, 1], "mu": [3, 3, 1]}]
    POWER_JOBS = [{"n": 6, "k": 3}, {"n": 7, "k": 4}]

    def test_agreeing_routes_pass(self):
        for fn, jobs in ((workloads.kron_job, self.KRON_JOBS),
                         (workloads.power_job, self.POWER_JOBS)):
            latencies, loops, failures = run_session(kronlab, fn, jobs, 0)
            self.assertEqual(failures, [])
            self.assertEqual(len(latencies), len(jobs))
            self.assertEqual(len(loops), len(jobs) + 1)

    def test_wrong_character_route_fails_every_job(self):
        def off_by_trivial(lam, mu):
            return kronlab.kron_product_via_characters(lam, mu) + kronlab.SchurSum.schur((sum(lam),))

        kl = patched(kron_product_via_characters=off_by_trivial)
        latencies, _, failures = run_session(kl, workloads.kron_job, self.KRON_JOBS, 0)
        self.assertEqual([i for i, _ in failures], [0, 1])
        self.assertIn("operator", failures[0][1])
        self.assertEqual(len(latencies), len(self.KRON_JOBS))

    def test_wrong_formula_fails(self):
        kl = patched(multiplicity_formula=lambda n, k, lam: kronlab.multiplicity_formula(n, k, lam) + 1)
        _, _, failures = run_session(kl, workloads.power_job, self.POWER_JOBS, 0)
        self.assertEqual(len(failures), len(self.POWER_JOBS))
        self.assertIn("formula", failures[0][1])

    def test_exception_fails_one_job_and_the_session_goes_on(self):
        calls = []

        def flaky(n, k):
            calls.append(n)
            if n == 6:
                raise RecursionError("too deep")
            return kronlab.kron_power_nm1(n, k)

        _, _, failures = run_session(patched(kron_power_nm1=flaky), workloads.power_job,
                                     self.POWER_JOBS, 0)
        self.assertEqual(failures, [[0, "RecursionError: too deep"]])
        self.assertEqual(calls, [6, 7])

    def test_cli_output_is_checked(self):
        job = {"kind": "formula", "n": 12, "k": 5, "lam": [9, 2, 1]}

        def record(multiplicity, schema="kronlab/1"):
            return json.dumps({"schema": schema, "n": 12, "k": 5, "lambda": [9, 2, 1],
                               "multiplicity": multiplicity})

        self.assertIsNone(workloads.check_cli(kronlab, job, 0, record("70")))
        self.assertIn("70", workloads.check_cli(kronlab, job, 0, record("71")))
        self.assertIn("exit 2", workloads.check_cli(kronlab, job, 2, record("70")))
        self.assertIn("schema", workloads.check_cli(kronlab, job, 0, record("70", "other")))
        egf = {"kind": "egf", "order": 3, "lam_bar": [1]}
        rows = [{"k": k, "formula": "1", "egf": "1", "ok": k != 2} for k in (1, 2, 3)]
        out = json.dumps({"schema": "kronlab/1", "rows": rows})
        self.assertIsNotNone(workloads.check_cli(kronlab, egf, 0, out))


class AbsentNames(unittest.TestCase):
    SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import kronlab
from tracing import Tracer
tracer = Tracer(wrapped=["characters.dimension_gone", "tableaux.walk_distribution",
                         "nomodule.f", "enumeration.TruncatedEGF.gone", "kron_ops.apply"],
                cached=["symfunc.lr_coefficient", "symfunc.perp", "symfunc.gone"])
tracer.install()
kronlab.kron_product_via_operator((3, 1), (2, 2))
print(json.dumps(tracer.snapshot()))
"""

    def test_missing_names_are_skipped_and_reported(self):
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, str(BENCH), str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        snap = json.loads(proc.stdout)
        self.assertEqual(set(snap["absent"]), {
            "characters.dimension_gone", "tableaux.walk_distribution", "nomodule.f",
            "enumeration.TruncatedEGF.gone", "symfunc.perp", "symfunc.gone"})
        self.assertEqual(snap["fn"]["kron_ops.apply"]["calls"], 1)
        self.assertGreater(snap["cache"]["symfunc.lr_coefficient"]["misses"], 0)

        extra = [("characters.dimension_gone.calls", "count", "lower", "none")]
        with mock.patch.object(tracing, "LAYER_METRICS", tracing.LAYER_METRICS + extra):
            values = tracing.layer_metrics([snap], [], 1.0)
        self.assertIsNone(values["characters.dimension_gone.calls"])
        self.assertEqual(values["kron_ops.apply.calls"], 1)


class Seeds(unittest.TestCase):
    SHAPE = {
        "kron_products": lambda jobs: Counter(tuple(j["lam"][1:]) for j in jobs),
        "power_sweep": lambda jobs: Counter(j["n"] for j in jobs),
        "cli_oneshot": lambda jobs: Counter(j["kind"] for j in jobs),
    }

    def test_same_shape_other_inputs(self):
        for workload, shape in self.SHAPE.items():
            a, b = (workloads.make_round(workload, seed, 0) for seed in (1, 2))
            self.assertEqual(workloads.make_round(workload, 1, 0), a)
            self.assertNotEqual(a, b)
            self.assertEqual(shape(a), shape(b))

    def test_own_combinatorics_match_kronlab(self):
        for n in range(1, 11):
            self.assertEqual(workloads.partitions(n), kronlab.partitions_of(n))
            for p in workloads.partitions(n):
                self.assertEqual(workloads.hook_count(p), kronlab.standard_tableaux_count(p))
                self.assertEqual(workloads.class_size(p), kronlab.class_size(p))

    def test_generated_walks_are_legal(self):
        rng = workloads.rng_for("test", 0, 0)
        for _ in range(200):
            n = rng.randint(2, 9)
            k = rng.randint(0, 8)
            walk = workloads.random_walk(rng, n, k)
            parsed = kronlab.parse_walk(walk)
            self.assertEqual((parsed.initial, parsed.length), ((n,), k))
            self.assertEqual(parsed.final, workloads.final_shape(walk))
            self.assertEqual(kronlab.format_walk(parsed), walk)


if __name__ == "__main__":
    unittest.main()
