"""Statistics and metric assembly for the repo benchmark.

The C++ harness (perfbench) reports raw samples, counters and spans; this
module turns them into the named end-to-end and per-layer metrics that
BENCHMARK.json lists.  It is plain Python with no third-party imports so the
benchmark's own tests (test_perfstats.py) can exercise it without a build.
"""

import math
import re

# Percentiles a timing may be reported at, lowest first.  A percentile is
# reported only when at least MIN_BEYOND samples lie beyond it.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name):
    """A metric or workload name: starts with a letter or digit, then at most
    63 more letters, digits, '_', '.' or '-'."""
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def median(xs):
    s = sorted(xs)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def samples_beyond(n, pct):
    """Samples strictly above the pct-th percentile of n samples."""
    return int(math.floor(n * (100.0 - pct) / 100.0 + 1e-9))


def tail_percentile(n):
    """The highest ladder percentile with at least MIN_BEYOND of n samples
    beyond it, or None when even the median does not qualify."""
    best = None
    for pct in PERCENTILE_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def percentile(xs, pct):
    """Nearest-rank percentile of raw samples."""
    s = sorted(xs)
    if not s:
        raise ValueError("percentile of no samples")
    rank = max(1, int(math.ceil(pct / 100.0 * len(s))))
    return s[rank - 1]


def hist_percentile(hist, pct):
    """Nearest-rank percentile of a histogram (index = value, entry = count)."""
    total = sum(hist)
    if total <= 0:
        raise ValueError("percentile of an empty histogram")
    target = pct / 100.0 * total
    cum = 0
    for value, count in enumerate(hist):
        cum += count
        if cum >= target:
            return value
    return len(hist) - 1


# --------------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------------

def read_spans(path):
    """Spans as dicts (id, parent, rep, name, start, end) from the harness's
    tab-separated span file."""
    spans = []
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        if header != ["id", "parent", "rep", "name", "start_ns", "end_ns"]:
            raise ValueError("unexpected span file header: %r" % header)
        for line in f:
            sid, parent, rep, name, start, end = line.rstrip("\n").split("\t")
            spans.append({"id": int(sid), "parent": int(parent), "rep": int(rep),
                          "name": name, "start": int(start), "end": int(end)})
    return spans


def self_times(spans):
    """Self time of every span in ns: its duration minus the part of its
    interval that its direct children cover.  Children may not overlap each
    other (spans nest like calls on one thread); the covered part is clipped
    to the parent's interval."""
    by_id = {s["id"]: s for s in spans}
    covered = {s["id"]: 0 for s in spans}
    for s in spans:
        p = by_id.get(s["parent"])
        if p is None:
            continue
        lo = max(s["start"], p["start"])
        hi = min(s["end"], p["end"])
        if hi > lo:
            covered[p["id"]] += hi - lo
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}


def self_time_by_name(spans, rep=None):
    """Summed self time in ns per span name, optionally for one rep id."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        if rep is not None and s["rep"] != rep:
            continue
        out[s["name"]] = out.get(s["name"], 0) + selfs[s["id"]]
    return out


def durations(spans, name, rep):
    return [s["end"] - s["start"] for s in spans if s["name"] == name and s["rep"] == rep]


# --------------------------------------------------------------------------
# Metric definitions: name -> (unit, better).  BENCHMARK.json lists exactly
# these names; test_perfstats.py keeps the two in step.
# --------------------------------------------------------------------------

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_MiB": ("MiB", "lower"),
    "stop_rounds": ("rounds", "lower"),
    "goodput_MBps": ("MB/s", "higher"),
    "latency_p99_rounds": ("rounds", "lower"),
}

PER_LAYER = {
    "gf.axpy256_GBps.row1152": ("GB/s", "higher"),
    "gf.axpy256_GBps.row96": ("GB/s", "higher"),
    "gf.xor_words_ns.w1": ("ns", "lower"),
    "linalg.bit_insert_ns.hot": ("ns", "lower"),
    "linalg.dense_insert_us.hot": ("us", "lower"),
    "linalg.dense_combine_us.hot": ("us", "lower"),
    "linalg.dense_insert_us.g16": ("us", "lower"),
    "core.round_ms.p50": ("ms", "lower"),
    "core.round_ms.p90": ("ms", "lower"),
    "core.activate_s": ("s", "lower"),
    "core.deliver_s": ("s", "lower"),
    "core.swarm_insert_ns": ("ns", "lower"),
    "core.swarm_over_hot": ("ratio", "lower"),
    "core.shard_speedup": ("ratio", "higher"),
    "core.cpu_per_wall": ("ratio", "higher"),
    "core.helpful_ratio": ("ratio", "higher"),
    "core.sent": ("count", "lower"),
    "core.delivered": ("count", "lower"),
    "core.dropped": ("count", "lower"),
    "core.decoder_MiB": ("MiB", "lower"),
    "sim.transport_Mfps": ("Mframe/s", "higher"),
    "graph.build_s": ("s", "lower"),
    "net.encode_Mfps": ("Mframe/s", "higher"),
    "net.decode_Mfps": ("Mframe/s", "higher"),
    "net.udp_fps": ("frame/s", "higher"),
    "net.swarm_fps": ("frame/s", "higher"),
    "net.swarm_over_bare": ("ratio", "lower"),
    "net.ctrl_byte_share": ("ratio", "lower"),
    "net.frames_per_block": ("ratio", "lower"),
    "net.ticks": ("count", "lower"),
    "net.decode_failures": ("count", "lower"),
    "net.recv_errors": ("count", "lower"),
    "net.dropped": ("count", "lower"),
    "coding.stall_ratio": ("ratio", "lower"),
    "coding.latency_p50_rounds": ("rounds", "lower"),
    "coding.state_KiB": ("KiB", "lower"),
    "coding.round_us.p50": ("us", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# Which traced repetition a workload-local per-layer metric comes from.
# Span rep ids are workload * 10 + variant (1 traced, 2 traced at S = 4,
# 3/4 untraced/traced pairs for the tracing overhead).
WORKLOAD_IDS = {"large_n_gf2": 1, "paper_gf256": 2, "udp_swarm": 3, "stream_rarest": 4}
ROUND_SPAN = {"large_n_gf2": "core.step_round", "paper_gf256": "core.round",
              "stream_rarest": "coding.round"}


def _metric(value, unit, samples=None):
    """A metric as reported: value and unit, plus the sample count it rests
    on (printed for people; the result line carries value and unit only)."""
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(raw):
    """End-to-end metrics of an untraced run, each with its sample count."""
    reps = raw["reps"]
    n = len(reps)
    first = reps[: raw["distinct_seeds"]]
    walls = [r["wall_s"] for r in reps]
    out = {
        "setup_s": _metric(median(raw["setup_trials"]), "s", len(raw["setup_trials"])),
        "wall_s": _metric(median(walls), "s", n),
        "cpu_s": _metric(median([r["cpu_s"] for r in reps]), "s", n),
        "peak_rss_MiB": _metric(raw["peak_rss_kib"] / 1024.0, "MiB", 1),
        "stop_rounds": _metric(sum(r["rounds"] for r in first) / float(len(first)),
                               "rounds", len(first)),
        "goodput_MBps": _metric(median([r["decoded_bytes"] / r["wall_s"] / 1e6
                                        for r in reps]), "MB/s", n),
    }
    hist = [int(c) for c in raw["latency_hist"]]
    total = sum(hist)
    if samples_beyond(total, 99.0) < MIN_BEYOND:
        raise ValueError("latency_p99_rounds: %d deliveries do not support a p99" % total)
    out["latency_p99_rounds"] = _metric(float(hist_percentile(hist, 99.0)), "rounds", total)
    tail = tail_percentile(n)
    if tail is not None and tail > 50.0:
        out["wall_s"]["tail"] = (tail, percentile(walls, tail))
    return out


def _pass(raw, workload, variant):
    for p in raw["passes"]:
        if p["workload"] == workload and p["variant"] == variant:
            return p
    raise KeyError("no %s pass with variant %d" % (workload, variant))


def per_layer(raw, spans):
    """Per-layer metrics of a traced run.  Ladder rungs and the large_n_gf2
    core counters are the same in every workload's traced run; round times,
    CPU per wall and tracing overhead come from the traced workload itself."""
    w = raw["workload"]
    lad = raw["ladder"]
    big = _pass(raw, "large_n_gf2", 1)
    big_s4 = _pass(raw, "large_n_gf2", 2)
    udp = _pass(raw, "udp_swarm", 1)
    stream = _pass(raw, "stream_rarest", 1)
    mine = _pass(raw, w, 1)
    paper_rep = WORKLOAD_IDS["paper_gf256"] * 10 + 1

    v = {name: lad[name] for name in lad}
    v["core.swarm_over_hot"] = lad["core.swarm_insert_ns"] / lad["linalg.bit_insert_ns.hot"]

    if w in ROUND_SPAN:
        rounds_ns = durations(spans, ROUND_SPAN[w], WORKLOAD_IDS[w] * 10 + 1)
    else:  # run_swarm's ticks are not visible from outside: mean tick time
        rounds_ns = [mine["wall_s"] * 1e9 / mine["rounds"]]
    v["core.round_ms.p50"] = percentile(rounds_ns, 50.0) / 1e6
    v["core.round_ms.p90"] = percentile(rounds_ns, 90.0) / 1e6

    paper_self = self_time_by_name(spans, paper_rep)
    v["core.activate_s"] = paper_self["core.activate"] / 1e9
    v["core.deliver_s"] = paper_self["core.end_round"] / 1e9
    v["core.shard_speedup"] = big["wall_s"] / big_s4["wall_s"]
    v["core.cpu_per_wall"] = mine["cpu_s"] / mine["wall_s"]

    c = big["counters"]
    v["core.helpful_ratio"] = c["helpful"] / float(c["helpful"] + c["useless"])
    v["core.sent"] = c["sent"]
    v["core.delivered"] = c["delivered"]
    v["core.dropped"] = c["dropped"]
    v["core.decoder_MiB"] = c["decoder_bytes"] / 1048576.0

    u = udp["counters"]
    data_bytes = u["sent"] * u["data_frame_bytes"]
    ctrl_bytes = u["bytes_sent"] - data_bytes
    frames = u["sent"] + ctrl_bytes / float(u["control_frame_bytes"])
    v["net.swarm_fps"] = frames / udp["wall_s"]
    v["net.swarm_over_bare"] = lad["net.udp_fps"] / v["net.swarm_fps"]
    v["net.ctrl_byte_share"] = ctrl_bytes / float(u["bytes_sent"])
    v["net.frames_per_block"] = u["delivered"] / float((u["n"] - 1) * u["k"])
    v["net.ticks"] = u["ticks"]
    v["net.decode_failures"] = u["decode_failures"]
    v["net.recv_errors"] = u["recv_errors"]
    v["net.dropped"] = u["dropped"]

    s = stream["counters"]
    v["coding.stall_ratio"] = s["stalled_rounds"] / float(stream["rounds"])
    v["coding.latency_p50_rounds"] = float(hist_percentile(stream["latency_hist"], 50.0))
    v["coding.state_KiB"] = s["state_bytes"] / 1024.0
    v["coding.round_us.p50"] = percentile(
        durations(spans, "coding.round", WORKLOAD_IDS["stream_rarest"] * 10 + 1), 50.0) / 1e3

    traced_walls = [p["wall_s"] for p in raw["passes"]
                    if p["workload"] == w and p["variant"] == 4]
    untraced_walls = [p["wall_s"] for p in raw["passes"]
                      if p["workload"] == w and p["variant"] == 3]
    v["trace.overhead_pct"] = 100.0 * (median(traced_walls) / median(untraced_walls) - 1.0)

    missing = set(PER_LAYER) - set(v)
    if missing:
        raise KeyError("per-layer metrics not produced: %s" % sorted(missing))
    return {name: _metric(float(v[name]), PER_LAYER[name][0]) for name in PER_LAYER}


def ladder(metrics, raw):
    """The rungs of each workload's ladder as (name, ns per operation), lowest
    layer first, so each rung can be shown against the one below it:
    large_n_gf2 xor -> cache-hot insert -> in-swarm insert; paper_gf256 row
    axpy -> cache-hot insert -> per-packet deliver in the running swarm;
    udp_swarm wire codec -> bare transport -> run_swarm, per frame."""
    v = {name: m["value"] for name, m in metrics.items()}
    delivered = _pass(raw, "paper_gf256", 1)["counters"]["delivered"]
    return {
        "large_n_gf2": [("gf.xor_words_ns.w1", v["gf.xor_words_ns.w1"]),
                        ("linalg.bit_insert_ns.hot", v["linalg.bit_insert_ns.hot"]),
                        ("core.swarm_insert_ns", v["core.swarm_insert_ns"])],
        "paper_gf256": [("gf.axpy256_GBps.row1152", 3 * 1152 / v["gf.axpy256_GBps.row1152"]),
                        ("linalg.dense_insert_us.hot", v["linalg.dense_insert_us.hot"] * 1e3),
                        ("core.deliver_s", v["core.deliver_s"] * 1e9 / delivered)],
        "udp_swarm": [("net.encode+decode", 1e3 / v["net.encode_Mfps"] +
                       1e3 / v["net.decode_Mfps"]),
                      ("net.udp_fps", 1e9 / v["net.udp_fps"]),
                      ("net.swarm_fps", 1e9 / v["net.swarm_fps"])],
    }


def ladder_line(chain):
    """'rung 5 ns | rung 350 ns (x70) | ...': each rung with its ratio to the
    rung below it."""
    parts = []
    for i, (name, ns) in enumerate(chain):
        part = "%s %.4g ns" % (name, ns)
        if i:
            part += " (x%.3g)" % (ns / chain[i - 1][1])
        parts.append(part)
    return " | ".join(parts)
