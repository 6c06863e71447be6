"""Unit tests of the benchmark's own statistics, parsing and accounting.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent
sys.path.insert(0, str(PERFBENCH))
import benchlib  # noqa: E402


def result_line(op, oid, cycles=1000, committed=800, entry="-"):
    return ("result %d %s %d %d 0.80000000000000004 123.5 00000000000000aa "
            "%s 0" % (op, oid, cycles, committed, entry))


ORACLE = {"aaaa": (1000, 800, "0.80000000000000004", "123.5",
                   "00000000000000aa", "e1", "bench=swim ...")}


class Stats(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = list(range(1, 11))
        self.assertEqual(benchlib.median(values), 5.5)
        self.assertEqual(benchlib.quartiles(values), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(benchlib.spread(values), 5.5 / 5.5)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_tail_percentile_needs_ten_samples_beyond(self):
        values = list(range(1, 201))
        self.assertEqual(benchlib.tail_percentile(values, 95), 190)
        with self.assertRaises(ValueError):
            benchlib.tail_percentile(values[:-1], 95)
        self.assertEqual(benchlib.tail_percentile(list(range(20)), 50), 9)
        with self.assertRaises(ValueError):
            benchlib.tail_percentile(list(range(19)), 50)
        # Order of the samples does not matter.
        self.assertEqual(benchlib.tail_percentile(values[::-1], 95), 190)


class Timeout(unittest.TestCase):
    def test_timeout_follows_the_planned_work(self):
        base = benchlib.loadgen_timeout(20, 0, 1)
        # A default run may take three times its length and still pass.
        self.assertGreaterEqual(base, 3 * 20)
        self.assertLess(base, 180)
        # Tracing runs every repetition twice; `all` runs three workloads.
        self.assertGreaterEqual(benchlib.loadgen_timeout(20, 1, 1), 3 * 40)
        self.assertGreaterEqual(benchlib.loadgen_timeout(20, 1, 3), 3 * 120)
        self.assertGreaterEqual(benchlib.loadgen_timeout(60, 0, 1), 3 * 60)
        # A short run still does the workloads' least work.
        self.assertGreaterEqual(benchlib.loadgen_timeout(1, 0, 1),
                                3 * benchlib.MIN_RUN_S)


class Accounting(unittest.TestCase):
    def section(self, text):
        _, sections = benchlib.parse_records("workload w\n" + text)
        return sections[0]

    def test_each_failure_kind_counts(self):
        sec = self.section("\n".join([
            "op 1 submit", result_line(1, "aaaa", entry="e1"),
            "op 2 submit", "fail 2 busy_reject",
            "op 3 submit", "fail 3 failed_row",
            "op 4 job", result_line(4, "aaaa", cycles=999),
        ]))
        attempted, failed, reasons = benchlib.account(sec, ORACLE)
        self.assertEqual((attempted, failed), (4, 3))
        self.assertEqual(reasons, {"busy_reject": 1, "failed_row": 1,
                                   "wrong_result": 1})

    def test_operation_fails_once_with_several_reasons(self):
        sec = self.section("\n".join([
            "op 1 submit", result_line(1, "aaaa", cycles=1),
            result_line(1, "bbbb"), "fail 1 failed_row"]))
        attempted, failed, reasons = benchlib.account(sec, ORACLE)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertEqual(sum(reasons.values()), 3)

    def test_deadlock_and_entry_bytes_count(self):
        dead = result_line(1, "aaaa")[:-1] + "1"
        sec = self.section("\n".join([
            "op 1 job", dead,
            "op 2 submit", result_line(2, "aaaa", entry="e2")]))
        _, failed, reasons = benchlib.account(sec, ORACLE)
        self.assertEqual(failed, 2)
        self.assertEqual(reasons, {"deadlocked": 1, "wrong_entry_bytes": 1})

    def test_planted_wrong_expectation_in_real_oracle(self):
        oracle = benchlib.load_oracle(PERFBENCH / "oracle.tsv")
        oid, row = sorted(oracle.items())[0]
        cycles, committed, ipc, energy, counters, entry, _ = row
        text = "op 1 job\nresult 1 %s %d %d %s %s %s %s 0" % (
            oid, cycles, committed, ipc, energy, counters, entry)
        sec = self.section(text)
        self.assertEqual(benchlib.account(sec, oracle), (1, 0, {}))
        planted = dict(oracle)
        planted[oid] = (cycles + 1,) + row[1:]
        self.assertEqual(benchlib.account(sec, planted),
                         (1, 1, {"wrong_result": 1}))

    def test_undeclared_op_is_an_error(self):
        sec = self.section("fail 9 busy_reject")
        with self.assertRaises(ValueError):
            benchlib.account(sec, ORACLE)


class Parsing(unittest.TestCase):
    def test_records(self):
        text = "\n".join([
            "context build_type Release", "workload fp_chains",
            "sample job_ms 1.5", "sample job_ms 2.5", "layer x.y 0.25",
            "op 1 job", result_line(1, "aaaa"), "fail 1 failed_row",
            "spans .bench_build/run/s.tsv", "workload int_cam",
            "sample setup_s 0.01"])
        context, sections = benchlib.parse_records(text)
        self.assertEqual(context, {"build_type": "Release"})
        self.assertEqual([s.workload for s in sections],
                         ["fp_chains", "int_cam"])
        fp = sections[0]
        self.assertEqual(fp.samples, {"job_ms": [1.5, 2.5]})
        self.assertEqual(fp.layers, {"x.y": 0.25})
        self.assertEqual(fp.ops, {1: "job"})
        self.assertEqual(fp.results[0].cycles, 1000)
        self.assertFalse(fp.results[0].deadlocked)
        self.assertEqual(fp.fails, [(1, "failed_row")])
        self.assertEqual(fp.spans, ".bench_build/run/s.tsv")
        self.assertEqual(sections[1].samples, {"setup_s": [0.01]})

    def test_bad_records(self):
        with self.assertRaises(ValueError):
            benchlib.parse_records("sample x 1")
        with self.assertRaises(ValueError):
            benchlib.parse_records("workload w\nbogus 1")

    def test_metric_line_round_trip(self):
        line = benchlib.format_metric_line("submit_p95_ms", 12.345678901234,
                                           "ms")
        self.assertEqual(line, "metric submit_p95_ms 12.345678901234 ms")
        self.assertEqual(benchlib.parse_metric_line(line),
                         ("submit_p95_ms", 12.345678901234, "ms"))
        with self.assertRaises(ValueError):
            benchlib.parse_metric_line("sample x 1 s")


class Metrics(unittest.TestCase):
    def test_self_time_subtracts_covered_children(self):
        spans = [
            (1, 0, 1, "bench", "job", 0, 100),
            (2, 1, 1, "sim", "Cpu::run", 10, 60),
            (3, 1, 1, "sim", "Cpu::run", 50, 70),  # overlaps its sibling
            (4, 2, 1, "trace", "next", 20, 30),
        ]
        t = benchlib.self_times(spans)
        self.assertAlmostEqual(t["bench"], 40e-9)
        self.assertAlmostEqual(t["sim"], 40e-9 + 20e-9)
        self.assertAlmostEqual(t["trace"], 10e-9)

    def test_end_to_end_keeps_the_faster_third_of_repetitions(self):
        lines = ["workload fp_chains"]
        for s in (0.3, 0.1, 0.2, 0.4, 0.5, 0.6):
            lines.append("sample setup_s %r" % s)
        # Passes 1, 3 and 4 ran during slow bursts and are dropped.
        walls = [2.0, 4.0, 2.5, 3.0, 3.5]
        for rep, wall in enumerate(walls):
            lines.append("rep %d" % rep)
            lines += ["sample job_ms %d" % j
                      for j in range(100 * rep, 100 * rep + 100)]
            lines += ["sample rep_s %r" % wall, "sample rep_insts 5e6",
                      "sample host_ref_ns %r" % benchlib.REF_HOST_NS]
        lines += ["rep -", "sample peak_rss_kb 2048"]
        _, [sec] = benchlib.parse_records("\n".join(lines))
        self.assertEqual(len(sec.reps), 5)
        self.assertEqual(benchlib.host_factor(sec), 1.0)
        m = benchlib.end_to_end(sec)
        self.assertEqual(m["sim_minst_per_s"], 2.25)   # median(2.5, 2.0)
        self.assertEqual(m["sweep_cold_s"], 2.25)
        self.assertEqual(m["campaign_s"], 4.5)         # kept passes summed
        jobs = list(range(100)) + list(range(200, 300))
        self.assertEqual(m["submit_p50_ms"], benchlib.median(jobs))
        self.assertEqual(m["submit_p95_ms"], 289)
        self.assertAlmostEqual(m["setup_s"], 0.15)     # of 0.1, 0.2
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(sec.samples["peak_rss_kb"], [2048.0])
        self.assertNotIn("peak_rss_kb", sec.reps[2])

    def test_host_times_scale_to_the_reference_speed(self):
        lines = ["workload int_cam", "sample setup_s 0.3"]
        # The host ran twice as slow as the reference throughout.
        slow = 2 * benchlib.REF_HOST_NS
        for rep in range(3):
            lines.append("rep %d" % rep)
            lines += ["sample job_ms %d" % j for j in range(200)]
            lines += ["sample rep_s 4.0", "sample rep_insts 5e6",
                      "sample host_ref_ns %r" % slow]
        lines += ["rep -", "sample peak_rss_kb 2048"]
        _, [sec] = benchlib.parse_records("\n".join(lines))
        self.assertEqual(benchlib.host_factor(sec), 2.0)
        m = benchlib.end_to_end(sec)
        self.assertEqual(m["sim_minst_per_s"], 2.5)
        self.assertEqual(m["sweep_cold_s"], 2.0)
        self.assertEqual(m["submit_p95_ms"], 189 / 2)
        self.assertEqual(m["setup_s"], 0.15)
        self.assertEqual(m["peak_rss_mb"], 2.0)   # memory is not scaled

    def test_faster_share(self):
        self.assertEqual(benchlib.faster_share([5, 1, 4, 2, 3, 6]), [1, 2])
        self.assertEqual(benchlib.faster_share([4, 1, 3, 2]), [1, 2])
        self.assertEqual(benchlib.faster_share([7]), [7])

    def test_campaign_keeps_every_repetition(self):
        lines = ["workload store_campaign"]
        # Repetition 2 caught a quiet stretch of the host: its phase A
        # ran a third faster and the reference loop at its reference
        # speed. Every repetition counts, and so does every loop time.
        sweeps = [1.2, 1.3, 0.8, 1.25, 1.35]
        for rep, sweep in enumerate(sweeps):
            ref = benchlib.REF_HOST_NS * (1 if rep == 2 else 2)
            lines.append("rep %d" % rep)
            lines += ["sample submit_ms %d" % j
                      for j in range(100 * rep, 100 * rep + 100)]
            lines += ["sample sweep_cold_s %r" % sweep,
                      "sample sweep_insts 6e6",
                      "sample rep_s %r" % (sweep + 2.0),
                      "sample setup_s %r" % (sweep / 100),
                      "sample host_ref_ns %r" % ref]
        lines += ["rep -", "sample peak_rss_kb 4096"]
        _, [sec] = benchlib.parse_records("\n".join(lines))
        self.assertEqual(len(benchlib.kept_reps(sec)), 5)
        self.assertEqual(benchlib.host_factor(sec), 2.0)
        m = benchlib.end_to_end(sec)
        self.assertEqual(m["sweep_cold_s"], 1.25 / 2)
        self.assertEqual(m["sim_minst_per_s"], 6 / 1.25 * 2)
        self.assertEqual(m["campaign_s"], 3.25 / 2)
        self.assertEqual(m["submit_p95_ms"], 474 / 2)  # rank 475 of 500
        self.assertAlmostEqual(m["setup_s"], 0.01 / 2)  # faster third
        self.assertEqual(m["peak_rss_mb"], 4.0)

    def test_per_layer_fills_unmeasured_and_rejects_unknown(self):
        _, [sec] = benchlib.parse_records("\n".join([
            "workload w", "layer a 1.5", "sample trace.untraced_s 10",
            "sample trace.traced_s 11"]))
        declared = ["a", "b", "bench.tracing_overhead_frac",
                    "bench.failed_frac", "sim.self_s"]
        spans = [(1, 0, 1, "sim", "Cpu::run", 0, 2000000000)]
        m = benchlib.per_layer(sec, declared, 4, 1, spans)
        self.assertEqual(m["a"], 1.5)
        self.assertEqual(m["b"], 0.0)
        self.assertAlmostEqual(m["bench.tracing_overhead_frac"], 0.1)
        self.assertEqual(m["bench.failed_frac"], 0.25)
        self.assertEqual(m["sim.self_s"], 2.0)
        with self.assertRaises(ValueError):
            benchlib.per_layer(sec, ["b"], 1, 0)


class Limits(unittest.TestCase):
    """BENCHMARK.json keeps to the limits of its schema."""

    def test_benchmark_json(self):
        b = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in b["workloads"]]
        for m in b["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, name)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        self.assertTrue(1 <= b["run_seconds"] <= 60)


if __name__ == "__main__":
    unittest.main()
