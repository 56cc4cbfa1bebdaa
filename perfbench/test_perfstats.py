"""The benchmark's own tests: percentile rule, span self-time arithmetic,
metric-name validity and agreement with BENCHMARK.json.

    python3 perfbench/test_perfstats.py
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import perfstats  # noqa: E402
import run  # noqa: E402


def span(sid, parent, start, end, name="s", rep=0):
    return {"id": sid, "parent": parent, "rep": rep, "name": name, "start": start, "end": end}


class PercentileRule(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(perfstats.samples_beyond(20, 50.0), 10)
        self.assertEqual(perfstats.samples_beyond(100, 90.0), 10)
        self.assertEqual(perfstats.samples_beyond(999, 99.0), 9)
        self.assertEqual(perfstats.samples_beyond(1000, 99.0), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(perfstats.tail_percentile(0))
        self.assertIsNone(perfstats.tail_percentile(19))
        self.assertEqual(perfstats.tail_percentile(20), 50.0)
        self.assertEqual(perfstats.tail_percentile(99), 50.0)
        self.assertEqual(perfstats.tail_percentile(100), 90.0)
        self.assertEqual(perfstats.tail_percentile(999), 90.0)
        self.assertEqual(perfstats.tail_percentile(1000), 99.0)
        self.assertEqual(perfstats.tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(perfstats.percentile(xs, 50.0), 50)
        self.assertEqual(perfstats.percentile(xs, 90.0), 90)
        self.assertEqual(perfstats.percentile([7], 99.0), 7)
        self.assertEqual(perfstats.median([3, 1, 2]), 2)
        self.assertEqual(perfstats.median([4, 1, 2, 3]), 2.5)

    def test_histogram_percentile(self):
        hist = [0, 50, 40, 9, 1]  # values 1..4
        self.assertEqual(perfstats.hist_percentile(hist, 50.0), 1)
        self.assertEqual(perfstats.hist_percentile(hist, 90.0), 2)
        self.assertEqual(perfstats.hist_percentile(hist, 99.0), 3)
        self.assertEqual(perfstats.hist_percentile(hist, 100.0), 4)
        with self.assertRaises(ValueError):
            perfstats.hist_percentile([0, 0], 50.0)

    def test_p99_refused_without_ten_beyond(self):
        raw = {"reps": [{"setup_s": 1.0, "wall_s": 2.0, "cpu_s": 2.0, "rounds": 5,
                         "decoded_bytes": 1e6, "ok": True}],
               "distinct_seeds": 1, "peak_rss_kib": 1024, "latency_hist": [0, 999],
               "setup_trials": [0.5, 0.25, 1.0]}
        with self.assertRaises(ValueError):
            perfstats.end_to_end(raw)
        raw["latency_hist"] = [0, 990, 10]
        m = perfstats.end_to_end(raw)
        self.assertEqual(m["latency_p99_rounds"]["value"], 1.0)
        self.assertEqual(m["latency_p99_rounds"]["samples"], 1000)
        self.assertNotIn("tail", m["wall_s"])  # one sample: median only
        self.assertEqual(m["setup_s"]["value"], 0.5)


class SpanSelfTime(unittest.TestCase):
    def test_parent_minus_children(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 40, 90),
                 span(3, 2, 50, 60)]
        st = perfstats.self_times(spans)
        self.assertEqual(st, {0: 100 - 20 - 50, 1: 20, 2: 50 - 10, 3: 10})
        # Self times of a tree sum to the root's duration.
        self.assertEqual(sum(st.values()), 100)

    def test_child_clipped_to_parent(self):
        st = perfstats.self_times([span(0, -1, 0, 10), span(1, 0, 5, 20)])
        self.assertEqual(st[0], 5)
        self.assertEqual(st[1], 15)

    def test_by_name_and_rep(self):
        spans = [span(0, -1, 0, 10, "round", 1), span(1, 0, 0, 4, "act", 1),
                 span(2, -1, 20, 30, "round", 2), span(3, 2, 20, 29, "act", 2)]
        self.assertEqual(perfstats.self_time_by_name(spans, 1), {"round": 6, "act": 4})
        self.assertEqual(perfstats.self_time_by_name(spans), {"round": 7, "act": 13})
        self.assertEqual(perfstats.durations(spans, "round", 2), [10])

    def test_span_file_round_trip(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.tsv")
            with open(path, "w", encoding="utf-8") as f:
                f.write("id\tparent\trep\tname\tstart_ns\tend_ns\n")
                f.write("0\t-1\t21\tcore.round\t100\t900\n")
                f.write("1\t0\t21\tcore.activate\t150\t450\n")
            spans = perfstats.read_spans(path)
        self.assertEqual(perfstats.self_time_by_name(spans, 21),
                         {"core.round": 500, "core.activate": 300})


class Ladder(unittest.TestCase):
    def test_ratio_to_rung_below(self):
        line = perfstats.ladder_line([("a", 5.0), ("b", 350.0), ("c", 700.0)])
        self.assertEqual(line, "a 5 ns | b 350 ns (x70) | c 700 ns (x2)")

    def test_chains_in_ns_per_operation(self):
        names = ["gf.xor_words_ns.w1", "linalg.bit_insert_ns.hot", "core.swarm_insert_ns",
                 "gf.axpy256_GBps.row1152", "linalg.dense_insert_us.hot", "core.deliver_s",
                 "net.encode_Mfps", "net.decode_Mfps", "net.udp_fps", "net.swarm_fps"]
        m = {n: {"value": 2.0} for n in names}
        raw = {"passes": [{"workload": "paper_gf256", "variant": 1,
                           "counters": {"delivered": 1000}}]}
        chains = perfstats.ladder(m, raw)
        self.assertEqual(chains["paper_gf256"][0][1], 3 * 1152 / 2.0)
        self.assertEqual(chains["paper_gf256"][1][1], 2000.0)
        self.assertEqual(chains["paper_gf256"][2][1], 2e6)
        self.assertEqual(chains["udp_swarm"][0][1], 1000.0)
        self.assertEqual(chains["udp_swarm"][2][1], 5e8)


class MetricNames(unittest.TestCase):
    def test_validity(self):
        for ok in ("wall_s", "gf.axpy256_GBps.row1152", "trace.overhead_pct", "a", "9x",
                   "x-y", "a" * 64):
            self.assertTrue(perfstats.valid_metric_name(ok), ok)
        for bad in ("", "_x", ".x", "a b", "a/b", "p99%", "a" * 65, "wall_s\n", None):
            self.assertFalse(perfstats.valid_metric_name(bad), bad)

    def test_every_name_is_valid_and_unique(self):
        names = list(perfstats.END_TO_END) + list(perfstats.PER_LAYER) + list(run.WORKLOADS)
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(perfstats.valid_metric_name(n), n)

    def test_benchmark_json_agrees(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
        # Every listed workload is runnable; run.py also accepts workloads
        # kept for manual runs and for the traced run's passes.
        listed = [w["name"] for w in bench["workloads"]]
        self.assertLessEqual(set(listed), set(run.WORKLOADS))
        self.assertEqual(len(listed), len(set(listed)))
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]},
                         perfstats.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
                         perfstats.PER_LAYER)
        for m in bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual(max(m["bound"] for m in bench["end_to_end"]),
                         next(m["bound"] for m in bench["end_to_end"]
                              if m["name"] == "setup_s"))


if __name__ == "__main__":
    unittest.main()
