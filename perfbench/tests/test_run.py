"""Tests of perfbench/run.py: the fixture hash check and the result record.

    python3 -m unittest discover perfbench/tests
"""
import importlib.util
import json
import pathlib
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               HERE.parent / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


class FixtureHashTest(unittest.TestCase):
    def test_committed_fixture_matches_recorded_hash(self):
        run.check_fixture(run.FIXTURE, run.FIXTURE_SHA256)

    def test_mismatch_is_refused(self):
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "model.bin"
            path.write_bytes(run.FIXTURE.read_bytes()[:-1] + b"\x00")
            with self.assertRaises(run.BenchError):
                run.check_fixture(path, run.FIXTURE_SHA256)

    def test_missing_file_is_refused(self):
        with self.assertRaises(run.BenchError):
            run.check_fixture(HERE / "no-such-model.bin", run.FIXTURE_SHA256)


def raw(metrics, attempted=10, failed=0, errors=()):
    return {"attempted": attempted, "failed": failed, "errors": list(errors),
            "metrics": {m: {"value": 1.5, "unit": "s"} for m in metrics}}


class ResultRecordTest(unittest.TestCase):
    def test_end_to_end_record(self):
        rec = run.result_record(raw(run.END_TO_END + ("extra",)), 0, 0)
        self.assertTrue(rec["correct"])
        self.assertEqual(set(rec["metrics"]), set(run.END_TO_END))
        self.assertEqual(set(rec), {"correct", "attempted", "failed",
                                    "metrics"})

    def test_per_layer_record_carries_failed_share(self):
        rec = run.result_record(raw(run.PER_LAYER, attempted=8, failed=2), 1, 1)
        self.assertFalse(rec["correct"])
        self.assertEqual(set(rec["metrics"]), set(run.PER_LAYER))
        self.assertAlmostEqual(
            rec["metrics"]["bench.failed_ops_share"]["value"], 0.25)

    def test_failures_and_errors_make_it_incorrect(self):
        self.assertFalse(run.result_record(raw(run.END_TO_END, failed=1), 0,
                                           0)["correct"])
        self.assertFalse(run.result_record(
            raw(run.END_TO_END, errors=["traced iterations differ"]), 0,
            0)["correct"])
        self.assertFalse(run.result_record(raw(run.END_TO_END), 0,
                                           1)["correct"])

    def test_missing_metric_makes_it_incorrect(self):
        rec = run.result_record(raw(run.END_TO_END[1:]), 0, 0)
        self.assertFalse(rec["correct"])


class BenchmarkSpecTest(unittest.TestCase):
    def test_spec_lists_the_metrics_the_runner_reports(self):
        spec_path = run.ROOT / "BENCHMARK.json"
        if not spec_path.is_file():
            self.skipTest("no BENCHMARK.json next to perfbench/")
        spec = json.loads(spec_path.read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
