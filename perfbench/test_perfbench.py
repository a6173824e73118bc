"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import random
import re
import sys
import time
import unittest
from itertools import islice
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import naive  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from record_catalogue import build_commands  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _entry(stdout: bytes, exit_code=0):
    return {"argv": ["fake"], "exit": exit_code, "sha256": harness.sha256(stdout),
            "bytes": len(stdout), "items": 1}


def _python(code):
    return [sys.executable, "-c", code]


class SeedToInputs(unittest.TestCase):
    def setUp(self):
        self.catalogue = workloads.load_catalogue()

    def test_same_seed_same_passes(self):
        for workload in workloads.SLOTS:
            first = list(islice(workloads.passes(self.catalogue, workload, 7), 5))
            again = list(islice(workloads.passes(self.catalogue, workload, 7), 5))
            self.assertEqual(first, again, workload)

    def test_seed_changes_inputs(self):
        for workload in ("grid-sweep", "special-seq", "point-queries"):
            a = list(islice(workloads.passes(self.catalogue, workload, 1), 5))
            b = list(islice(workloads.passes(self.catalogue, workload, 2), 5))
            self.assertNotEqual(a, b, workload)

    def test_every_pass_runs_every_slot_once(self):
        for workload, slots in workloads.SLOTS.items():
            for commands in islice(workloads.passes(self.catalogue, workload, 3), 4):
                self.assertEqual(sorted(s for s, _ in commands), sorted(slots))

    def test_catalogue_is_the_seeded_draw_with_pins(self):
        commands = build_commands()
        for workload, slots in self.catalogue.items():
            for slot, entries in slots.items():
                self.assertEqual([e["argv"] for e in entries], commands[workload][slot])
                for e in entries:
                    self.assertIn(e["exit"], (0, 1))
                    self.assertRegex(e["sha256"], "^[0-9a-f]{64}$")
                    self.assertGreater(e["items"], 0)


class Gate(unittest.TestCase):
    def test_pinned_output_passes(self):
        r = run.Run("point-queries", 0, 1)
        r.command(_entry(b"ok\n"), _python("print('ok')"))
        self.assertEqual((r.attempted, r.failed), (1, 0))

    def test_corrupted_stdout_raises_error_rate(self):
        r = run.Run("point-queries", 0, 1)
        rows = r.loop(
            {"point-queries": {s: [_entry(b"ok\n")] for s in workloads.SLOTS["point-queries"]}},
            lambda commands: r.command(commands[0][1], _python("print('corrupted')")),
        )
        self.assertEqual(rows, [])
        result = r.result({})
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))
        self.assertFalse(result["correct"])
        self.assertIn("sha256", r.problems[0])

    def test_wrong_exit_code_and_empty_stdout_fail(self):
        ok = harness.ChildResult(0.1, 0.1, 1, 0, False, b"x")
        self.assertIsNone(harness.gate(_entry(b"x"), ok))
        self.assertIn("exit code", harness.gate(_entry(b"x", exit_code=1), ok))
        empty = harness.ChildResult(0.1, 0.1, 1, 0, False, b"")
        self.assertEqual(harness.gate(_entry(b""), empty), "empty stdout")

    def test_timeout_fails_fast(self):
        r = run.Run("point-queries", 0, 1)
        start = time.perf_counter()
        with mock.patch.dict(run.TIMEOUT_S, {"point-queries": 0.5}):
            rows = r.loop(
                {"point-queries": {s: [_entry(b"")] for s in workloads.SLOTS["point-queries"]}},
                lambda commands: r.command(commands[0][1], _python("import time; time.sleep(30)")),
            )
        self.assertLess(time.perf_counter() - start, 10)
        self.assertEqual(rows, [])
        self.assertEqual((r.attempted, r.failed), (1, 1))
        self.assertIn("timed out", r.problems[0])

    def test_spot_check_catches_a_wrong_cell(self):
        argv = ["crossval", "--theorem", "3", "--rec", "1,4,2,5", "--prime-bound", "5",
                "--a-max", "2", "--b-max", "2", "--format", "csv"]
        result = harness.run_child(harness.cli_argv(argv), timeout=60, tag="test")
        self.assertEqual(result.exit_code, 1)  # the p | v disagreement at p = 5
        self.assertEqual(harness.spot_check_grid(argv, result.stdout, random.Random(0), 99), [])
        flipped = result.stdout.replace(b"5,1,0,true,false", b"5,1,0,true,true", 1)
        self.assertNotEqual(flipped, result.stdout)
        self.assertTrue(harness.spot_check_grid(argv, flipped, random.Random(0), 99))


class Naive(unittest.TestCase):
    def test_known_verdicts(self):
        self.assertEqual(naive.oracle(naive.FIBONACCI, 5, 5, 1), (True, False))
        self.assertEqual(naive.oracle(naive.FIBONACCI, 2, 1, 1), (False, False))
        self.assertEqual(naive.oracle(naive.FIBONACCI, 5, 5, 0), (True, True))

    def test_p_divides_v_disagreement(self):
        # criterion 3 predicts the property for A(n) with rec 1,4,2,5 at
        # p = 5, a = 1, b = 0, but the congruence fails at n = 6
        rec = (1, 4, 2, 5)
        self.assertTrue(naive.predicted(3, rec, 5, 1, 0))
        self.assertEqual(naive.oracle(rec, 5, 1, 0), (False, False))

    def test_special_prefixes(self):
        self.assertEqual(naive.apery_mod(4, 10**9), [1, 5, 73, 1445, 33001])
        self.assertEqual(naive.omega_mod(6, 10**9), [1, 1, 3, 19, 211, 3651, 90921])


class Metrics(unittest.TestCase):
    def test_names_and_units(self):
        for units in (run.END_TO_END_UNITS, run.PER_LAYER_UNITS):
            for name, unit in units.items():
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)

    def test_benchmark_json_matches_the_runner(self):
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(workloads.SLOTS))

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail(list(range(10))), (None, None))
        self.assertEqual(run.tail(list(range(40))), (29, 75.0))


if __name__ == "__main__":
    unittest.main()
