"""Tests of the benchmark itself: the checks reject corrupted outputs, a
corrupted repetition is counted as failed, self time is right on
synthetic nested spans, and the normalisation arithmetic is right.

    python3 -m unittest discover -s bench -v
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import graftkit  # noqa: E402
import timing  # noqa: E402
import tracer  # noqa: E402
from run import Tally  # noqa: E402
from workloads import ComplexBuild, IdentitySuites, OracleSweep  # noqa: E402


def _corrupt_key(key: str, label: str, delta: int) -> str:
    doc = json.loads(key)
    doc["content"] = [[lab, n + delta if lab == label else n]
                      for lab, n in doc["content"]]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class SmallComplex(ComplexBuild):
    sizes = ((1, 2, 2), (2, 1, 2))


class SmallIdentity(IdentitySuites):
    suites = {
        "goldman": {"trials": 5, "seed": 7},
        "iterated": {"l0": 1, "twist_bound": 3},
        "two_meridian": {"k_max": 3},
        "dehn_twist": {"k_max": 3},
    }
    fan = ("a", 3, 2)
    witness = (1, 3)


class OracleChecks(unittest.TestCase):

    def test_primitive_count(self):
        self.assertEqual(len(checks.primitive_classes(1)), 8)
        self.assertEqual(len(checks.primitive_classes(2)), 16)

    def test_real_report_passes(self):
        report = graftkit.verify_suite("oracle", sweep=1).to_json_obj()
        self.assertEqual(checks.oracle_report(report, 1), [])

    def test_wrong_pair_total_is_rejected(self):
        report = graftkit.verify_suite("oracle", sweep=1).to_json_obj()
        bad = copy.deepcopy(report)
        bad["instances"][-1]["desc"] = bad["instances"][-1]["desc"].replace(
            "64 primitive", "63 primitive")
        self.assertTrue(checks.oracle_report(bad, 1))
        self.assertTrue(checks.oracle_report(report, 2))

    def test_failed_report_is_rejected(self):
        report = graftkit.verify_suite("oracle", sweep=1).to_json_obj()
        report["passed"] = False
        self.assertTrue(checks.oracle_report(report, 1))

    def test_sign_rule(self):
        self.assertEqual(checks.resolved_total((1, 0), (0, 1), True), (1, 1))
        self.assertEqual(checks.resolved_total((1, 0), (0, 1), False),
                         (1, -1))
        self.assertEqual(checks.resolved_total((0, 1), (1, 0), True),
                         (-1, 1))
        self.assertEqual(checks.resolved_total((1, 2), (1, 2), False),
                         (2, 4))

    def test_wrong_oracle_pair_is_rejected(self):
        a, b = (1, 1), (1, -1)
        sharp, flat = [(0, 2)], [(2, 0)]
        self.assertEqual(checks.oracle_pair(a, b, (2, -2), sharp, flat), [])
        self.assertTrue(checks.oracle_pair(a, b, (2, 2), sharp, flat))
        self.assertTrue(checks.oracle_pair(a, b, (2, -2), flat, sharp))
        self.assertTrue(checks.oracle_pair(a, b, (2, -2), [(0, 1)], flat))


class ComplexChecks(unittest.TestCase):

    def setUp(self):
        graph = graftkit.build_complex(graftkit.standard_configuration(2),
                                       2, 2)
        self.ranks = graph.rank_by_kind()
        self.doc = graph.to_json_obj()
        self.assertGreater(self.ranks["elementary"], 0)

    def problems(self, doc=None, ranks=None):
        data = json.dumps(doc or self.doc).encode()
        return checks.complex_export(data, ranks or self.ranks)

    def test_real_export_passes(self):
        self.assertEqual(self.problems(), [])

    def test_changed_key_entry_is_rejected(self):
        doc = copy.deepcopy(self.doc)
        v = doc["vertices"][-1]
        v["key"] = _corrupt_key(v["key"], "gamma", 2)
        self.assertTrue(self.problems(doc))

    def test_dropped_edge_is_rejected(self):
        for kind in ("graft", "elementary"):
            doc = copy.deepcopy(self.doc)
            doc["edges"].remove(next(e for e in doc["edges"]
                                     if e["kind"] == kind))
            self.assertTrue(self.problems(doc), kind)

    def test_wrong_rank_is_rejected(self):
        ranks = dict(self.ranks, graft=self.ranks["graft"] + 1)
        self.assertTrue(self.problems(ranks=ranks))

    def test_dangling_edge_is_rejected(self):
        doc = copy.deepcopy(self.doc)
        doc["edges"][0]["dst"] = len(doc["vertices"])
        self.assertTrue(self.problems(doc))

    def test_unparsable_export_is_rejected(self):
        self.assertTrue(checks.complex_export(b"{", self.ranks))


class IdentityChecks(unittest.TestCase):

    def setUp(self):
        self.workload = SmallIdentity()
        self.workload.prepare(graftkit, 1)
        self.outputs = self.workload.job()

    def test_real_outputs_pass(self):
        self.assertEqual(self.workload.check(self.outputs), [])

    def test_changed_witness_key_is_rejected(self):
        reports, fan, export = self.outputs
        doc = json.loads(export)
        target = doc["edges"][0]["dst"]
        doc["vertices"][target]["key"] = _corrupt_key(
            doc["vertices"][target]["key"], "lambda", 1)
        bad = (reports, fan, json.dumps(doc).encode())
        self.assertTrue(self.workload.check(bad))

    def test_dropped_witness_edge_is_rejected(self):
        reports, fan, export = self.outputs
        doc = json.loads(export)
        doc["edges"].pop()
        self.assertTrue(self.workload.check(
            (reports, fan, json.dumps(doc).encode())))

    def test_changed_fan_key_is_rejected(self):
        reports, fan, export = self.outputs
        bad_fan = copy.deepcopy(fan)
        bad_key = _corrupt_key(fan.common_key, "gamma", -2)
        bad_fan.common_key = bad_key
        bad_fan.rows = [(l, k, bad_key) for l, k, _ in fan.rows]
        self.assertTrue(self.workload.check((reports, bad_fan, export)))

    def test_short_suite_is_rejected(self):
        reports, fan, export = self.outputs
        bad = dict(reports)
        bad["dehn_twist"] = graftkit.verify_suite("dehn_twist", k_max=2)
        self.assertTrue(self.workload.check((bad, fan, export)))


class CorruptedRepetitionsCount(unittest.TestCase):
    """A repetition whose output fails a check is counted as failed."""

    def tally(self, workload, corrupt):
        job = workload.job
        tally = Tally(workload)
        tally.run()
        tally.run(lambda: corrupt(job()))
        return tally

    def test_complex_dropped_edge(self):
        workload = SmallComplex()
        workload.prepare(graftkit, 1)

        def drop_edge(outputs):
            ranks, data = outputs[0]
            doc = json.loads(data)
            doc["edges"].pop()
            return [(ranks, json.dumps(doc).encode())] + outputs[1:]

        tally = self.tally(workload, drop_edge)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertFalse(tally.correct)

    def test_oracle_wrong_pair_total(self):
        workload = OracleSweep()
        workload.radius = 1
        workload.sample_size = 2
        workload.prepare(graftkit, 3)

        def wrong_total(report):
            report.instances[-1].desc = report.instances[-1].desc.replace(
                "64", "65")
            return report

        tally = self.tally(workload, wrong_total)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_malformed_output(self):
        workload = SmallIdentity()
        workload.prepare(graftkit, 1)

        def dangling_edge(outputs):
            reports, fan, export = outputs
            doc = json.loads(export)
            doc["edges"][0]["src"] = len(doc["vertices"])
            return reports, fan, json.dumps(doc).encode()

        tally = self.tally(workload, dangling_edge)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertFalse(tally.correct)

    def test_raising_job(self):
        workload = SmallComplex()
        workload.prepare(graftkit, 1)
        tally = Tally(workload)
        self.assertIsNone(tally.run(lambda: 1 / 0))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertTrue(tally.correct)


class SelfTime(unittest.TestCase):

    def test_nested_spans(self):
        spans = [
            ["a", 0.0, 10.0, -1],
            ["b", 1.0, 4.0, 0],
            ["c", 2.0, 3.0, 1],
            ["b", 5.0, 9.0, 0],
            ["d", 10.0, 12.0, -1],
        ]
        got = tracer.self_times(spans)
        self.assertEqual(got, {"a": 3.0, "b": 6.0, "c": 1.0, "d": 2.0})

    def test_overlapping_children_are_counted_once(self):
        spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 5.0, 0],
                 ["b", 3.0, 7.0, 0], ["c", 9.0, 14.0, 0]]
        got = tracer.self_times(spans)
        self.assertEqual(got["a"], 10.0 - 6.0 - 1.0)

    def test_traced_counts_repeat_and_layers_are_restored(self):
        workload = SmallComplex()
        workload.prepare(graftkit, 1)
        original = graftkit.surface.is_admissible
        trace = tracer.Tracer()
        rows = []
        for _ in range(2):
            trace.reset()
            trace.install(graftkit)
            try:
                self.assertIsNot(graftkit.complex_graph.is_admissible,
                                 original)
                workload.job()
            finally:
                trace.uninstall()
            rows.append(tracer.layer_metrics(
                trace.calls, trace.outcomes,
                tracer.self_times(trace.spans)))
        self.assertIs(graftkit.complex_graph.is_admissible, original)
        self.assertIs(graftkit.is_admissible, original)
        counts = [{k: v for k, v in row.items() if not k.endswith("_s")}
                  for row in rows]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["surface.is_admissible.calls"], 0)
        self.assertGreater(counts[0]["complex_graph.vertices"], 0)
        self.assertGreater(rows[0]["surface.canonical_key.self_s"], 0)
        self.assertEqual(rows[0]["grid_oracle.crossing_list.calls"], 0)


class Declared(unittest.TestCase):
    """BENCHMARK.json declares exactly the metrics the benchmark prints."""

    def test_metrics_match(self):
        from run import END_TO_END
        declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]},
                         END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"])
             for m in declared["per_layer"]}, tracer.PER_LAYER)


class Normalisation(unittest.TestCase):

    def test_sum_over_sum(self):
        self.assertAlmostEqual(
            timing.normalised([1.0, 3.0], [0.5, 1.5], nominal=0.1), 0.2)

    def test_unequal_counts_use_means(self):
        self.assertAlmostEqual(
            timing.normalised([2.0], [0.5, 1.5, 1.0], nominal=0.25), 0.5)

    def test_host_speed_cancels(self):
        jobs, kernels = [0.8, 0.9, 0.7], [0.1, 0.11, 0.09]
        slow = timing.normalised([2 * j for j in jobs],
                                 [2 * k for k in kernels])
        self.assertAlmostEqual(slow, timing.normalised(jobs, kernels))

    def test_median_form(self):
        self.assertAlmostEqual(timing.median_normalised(
            [0.03, 0.04, 0.5], [0.1, 0.2, 0.2], nominal=0.1), 0.02)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            timing.normalised([], [1.0])


if __name__ == "__main__":
    unittest.main()
