#!/usr/bin/env python3
"""The repo benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds the C++ harness (Release, into
.bench_build/perfbench; the first run compiles, later runs only check), runs
the workload, checks every output for correctness, prints each metric by
name with its unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ladder
(spans are written to .bench_build/traces/).  The exit code is 0 only when
every correctness check passed; without the repo's sources next to this
directory it fails before measuring anything.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import perfstats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("large_n_gf2", "paper_gf256", "udp_swarm", "stream_rarest")
# Later gain claims are confirmed on this seed, never used while tuning.
HELD_OUT_SEED = 20261017
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no repo sources next to %s; nothing to build" % HERE)
        return None
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    # Compiler scratch files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "a", encoding="utf-8") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT, env=env) != 0:
                log("build failed: %s (see %s)" % (" ".join(cmd), log_path))
                return None
    return os.path.join(BUILD_DIR, "perfbench")


def print_metric(name, m, better=None):
    line = "%-28s %.6g %s" % (name, m["value"], m["unit"])
    if m.get("samples") is not None:
        line += "  (n=%d" % m["samples"]
        if "tail" in m:
            line += ", p%g=%.6g" % m["tail"]
        line += ")"
    if better:
        line += "  [%s is better]" % better
    print(line)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    binary = build()
    if binary is None:
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans_path = None
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        spans_path = os.path.join(TRACE_DIR, "%s-seed%d.tsv" % (args.workload, args.seed))
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("harness exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("harness failed with exit code %d" % proc.returncode)
        return 2
    raw = json.loads(lines[-1])

    prov = raw["provenance"]
    if prov["build_type"] != "Release":
        log("refusing a %s build" % prov["build_type"])
        return 2
    forced = " (FORCED by AG_GF_BACKEND=%s)" % prov["gf_backend_requested"] \
        if prov["gf_backend_forced"] else ""
    print("workload %s  seed %d%s  trace %d" % (
        args.workload, args.seed, " (held-out)" if args.seed == HELD_OUT_SEED else "",
        args.trace))
    print("provenance: gf backend %s%s | nproc %d | build %s | compiler %s" % (
        prov["gf_backend"], forced, prov["nproc"], prov["build_type"], prov["compiler"]))

    if args.trace:
        spans = perfstats.read_spans(spans_path)
        units = perfstats.per_layer(raw, spans)
        attempted = len(raw["passes"])
        failed = sum(1 for p in raw["passes"] if not p["ok"])
        defs = perfstats.PER_LAYER
        # A rung that fails its own check (frames lost, decode mismatch)
        # reports 0; that fails the run like any other correctness gate.
        broken = sorted(k for k, v in raw["ladder"].items() if not v > 0)
        if broken:
            print("rungs failed their checks: " + ", ".join(broken))
            raw["ok"] = False
        top = sorted(perfstats.self_time_by_name(spans).items(), key=lambda kv: -kv[1])
        print("self time by span (all passes): " + ", ".join(
            "%s %.3fs" % (name, ns / 1e9) for name, ns in top[:8]))
        for name, chain in perfstats.ladder(units, raw).items():
            print("ladder %s: %s" % (name, perfstats.ladder_line(chain)))
        for p in raw["passes"]:
            print("pass %-14s variant %d  rounds %d  wall %.4f s  %s" % (
                p["workload"], p["variant"], p["rounds"], p["wall_s"],
                "ok" if p["ok"] else "FAILED: " + p["why"]))
    else:
        units = perfstats.end_to_end(raw)
        checked = [raw["warmup"]] + raw["reps"]
        attempted = len(checked)
        failed = sum(1 for r in checked if not r["ok"])
        defs = perfstats.END_TO_END
        for r in checked:
            if not r["ok"]:
                print("repetition failed: " + r["why"])
    correct = raw["ok"] and failed == 0
    if not raw["ok"] and failed == 0:
        failed = 1  # a run-level gate (rounds identity, a rung's check) failed

    for name, (unit, better) in defs.items():
        print_metric(name, units[name], better)
    print("%-28s %.6g  (%d of %d failed)" % ("fail_ratio", failed / float(attempted),
                                             failed, attempted))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": units[name]["value"], "unit": units[name]["unit"]}
                          for name in defs}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
