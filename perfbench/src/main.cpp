// perfbench -- the repo benchmark's harness.  It calls only the library's
// public functions, times those calls, and prints one JSON object (the raw
// samples and counters) as the last line of stdout; run.py turns that into
// the named metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 measures the workload untraced: a warm-up repetition, then
//   repetitions back to back, one at a time, each followed by a few set-up
//   trials, until the next one would overrun --seconds (and at least one
//   pass over the workload's distinct seeds).
// --trace 1 runs the ladder rungs, one traced repetition of every workload
//   (large_n_gf2 also at S = 4) and untraced/traced pairs of the named one,
//   with spans kept in memory and written to --spans at the end.
//
// Exit codes: 0 all checks passed, 1 a correctness check failed, 2 usage,
// 3 refused build (not Release).
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.hpp"
#include "gf/backend/backend.hpp"
#include "ladder.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Args {
  Workload workload = Workload::LargeNGf2;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans;
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "large_n_gf2|paper_gf256|udp_swarm|stream_rarest --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               msg);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

Json provenance() {
  Json p;
  const char* forced = std::getenv("AG_GF_BACKEND");
  p.str("gf_backend", ag::gf::backend::to_string(ag::gf::backend::active_backend()))
      .boolean("gf_backend_forced", forced != nullptr && *forced != '\0')
      .str("gf_backend_requested", forced != nullptr ? forced : "")
      .integer("nproc", std::thread::hardware_concurrency())
      .str("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  p.str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  p.str("compiler", std::string("gcc ") + __VERSION__);
#else
  p.str("compiler", "unknown");
#endif
  return p;
}

Json rep_json(const Rep& r, std::uint64_t seed_index) {
  Json j;
  j.integer("seed_index", seed_index)
      .num("setup_s", r.setup_s)
      .num("wall_s", r.wall_s)
      .num("cpu_s", r.cpu_s)
      .integer("rounds", r.rounds)
      .num("decoded_bytes", r.decoded_bytes)
      .boolean("ok", r.ok)
      .str("why", r.why);
  return j;
}

void add_hist(std::vector<std::uint64_t>& into, const std::vector<std::uint64_t>& h) {
  if (into.size() < h.size()) into.resize(h.size(), 0);
  for (std::size_t i = 0; i < h.size(); ++i) into[i] += h[i];
}

std::vector<double> as_doubles(const std::vector<std::uint64_t>& v) {
  return {v.begin(), v.end()};
}

// setup_s is the median of set-up-only trials, each on its own seed, so one
// slow input (a graph that needed many resampling attempts) cannot swing it.
// A slot of trials follows every repetition and lasts about kSetupShare of
// that repetition's time, so the trials sample the same stretch of the run
// as the repetitions do.
constexpr double kSetupShare = 0.05;
constexpr std::size_t kMinSlotTrials = 2, kMaxSlotTrials = 40;
constexpr std::uint64_t kSetupSeedBase = 1000;

// Untraced measurement: closed loop, one repetition at a time.  Repetition 0
// is a warm-up on the first seed: its outputs are checked but its times are
// not reported (first-touch page faults, lazy backend selection).  Measured
// repetition i then uses seed index (i - 1) % distinct.
bool measure(const Args& a, Json& out) {
  Tracer off(false);
  const auto wid = static_cast<std::uint64_t>(a.workload);
  const std::size_t distinct = distinct_seeds(a.workload);
  std::vector<Json> reps;
  Json warmup;
  std::vector<double> setups;
  std::vector<std::uint64_t> hist;  // first pass over the distinct seeds
  bool all_ok = true;
  double longest = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i > distinct && seconds_since(start) + longest > a.seconds) break;
    const std::size_t si = i == 0 ? 0 : (i - 1) % distinct;
    const auto t_rep = Clock::now();
    const Rep r = run_rep(a.workload, derive(a.seed, wid, si), off, static_cast<std::uint32_t>(i));
    const double rep_s = seconds_since(t_rep);
    if (!r.ok) std::fprintf(stderr, "perfbench: repetition %zu failed: %s\n", i, r.why.c_str());
    all_ok = all_ok && r.ok;
    const auto t_slot = Clock::now();
    for (std::size_t t = 0; t < kMaxSlotTrials; ++t) {
      if (t >= kMinSlotTrials && seconds_since(t_slot) > kSetupShare * rep_s) break;
      const Rep st = run_rep(a.workload, derive(a.seed, wid, kSetupSeedBase + setups.size()),
                             off, 0, {.setup_only = true});
      all_ok = all_ok && st.ok;
      setups.push_back(st.setup_s);
    }
    longest = std::max(longest, seconds_since(t_rep));
    if (i == 0) {
      warmup = rep_json(r, si);
      continue;
    }
    if (i <= distinct) add_hist(hist, r.latency_hist);
    reps.push_back(rep_json(r, si));
  }
  out.integer("distinct_seeds", distinct)
      .nums("setup_trials", setups)
      .obj("warmup", warmup)
      .objs("reps", reps)
      .nums("latency_hist", as_doubles(hist))
      .integer("peak_rss_kib", peak_rss_kib());
  return all_ok;
}

// Traced run: the ladder, then one traced repetition of every workload on
// its first seed (large_n_gf2 also at S = 4), then untraced/traced pairs of
// the named workload for the tracing overhead, alternating which side runs
// first.  Span rep ids are workload * 10 + variant (1 traced, 2 traced at
// S = 4, 3 untraced pair side, 4 traced pair side).
constexpr int kOverheadPairs = 2;
bool traced(const Args& a, Json& out) {
  Tracer tr(true);
  Tracer off(false);
  const Json ladder = run_ladder(a.seed, tr);
  std::vector<Json> passes;
  bool all_ok = true;
  auto pass = [&](Workload w, int variant, std::size_t shards) {
    const std::uint64_t s0 = derive(a.seed, static_cast<std::uint64_t>(w), 0);
    const auto rep_id = static_cast<std::uint32_t>(static_cast<int>(w) * 10 + variant);
    Rep r = run_rep(w, s0, variant == 3 ? off : tr, rep_id, {.shards = shards});
    if (!r.ok) std::fprintf(stderr, "perfbench: %s pass %d failed: %s\n", workload_name(w),
                            variant, r.why.c_str());
    all_ok = all_ok && r.ok;
    Json j = rep_json(r, 0);
    j.str("workload", workload_name(w))
        .integer("variant", static_cast<std::uint64_t>(variant))
        .integer("rep_id", rep_id)
        .nums("latency_hist", as_doubles(r.latency_hist))
        .obj("counters", r.counters);
    passes.push_back(j);
    return r.rounds;
  };
  auto check_rounds = [&](const char* what, std::uint64_t want, std::uint64_t got) {
    if (want == got) return;
    std::fprintf(stderr, "perfbench: %s: %llu rounds != %llu\n", what,
                 static_cast<unsigned long long>(got), static_cast<unsigned long long>(want));
    all_ok = false;
  };
  std::uint64_t traced_rounds = 0;
  for (const Workload w : kAllWorkloads) {
    const std::uint64_t rounds = pass(w, 1, 0);
    if (w == a.workload) traced_rounds = rounds;
    if (w == Workload::LargeNGf2) {
      check_rounds("large_n_gf2 at S = 4 vs S = 1", rounds, pass(w, 2, 4));
    }
  }
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    const std::uint64_t first = pass(a.workload, pair % 2 == 0 ? 3 : 4, 0);
    const std::uint64_t second = pass(a.workload, pair % 2 == 0 ? 4 : 3, 0);
    // Simulated stopping rounds are a pure function of the seed: the traced
    // loop must reproduce the library loop exactly.  (udp_swarm ticks may
    // depend on kernel scheduling and are not compared.)
    if (a.workload != Workload::UdpSwarm) {
      check_rounds("untraced vs traced", traced_rounds, first);
      check_rounds("untraced vs traced", traced_rounds, second);
    }
  }
  out.obj("ladder", ladder).objs("passes", passes);
  if (!a.spans.empty() && !tr.write(a.spans)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", a.spans.c_str());
    all_ok = false;
  }
  return all_ok;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool have_w = false, have_seed = false, have_secs = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view opt = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const char* val = argv[++i];
    std::uint64_t u = 0;
    if (opt == "--workload") {
      if (!parse_workload(val, a.workload)) return usage("unknown workload");
      have_w = true;
    } else if (opt == "--seed") {
      if (!parse_u64(val, a.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (opt == "--seconds") {
      if (!parse_u64(val, u) || u == 0 || u > 600) return usage("bad --seconds");
      a.seconds = static_cast<double>(u);
      have_secs = true;
    } else if (opt == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return usage("bad --trace");
      a.trace = val[0] == '1';
      have_trace = true;
    } else if (opt == "--spans") {
      a.spans = val;
    } else {
      return usage("unknown option");
    }
  }
  if (!have_w || !have_seed || !have_secs || !have_trace) return usage("missing option");

#ifndef NDEBUG
  constexpr bool kAssertsOn = true;
#else
  constexpr bool kAssertsOn = false;
#endif
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release" || kAssertsOn) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build (Release only)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

#ifdef M_MMAP_THRESHOLD
  // Every measured repetition reuses heap memory, like a long-lived sweep
  // process; the warm-up pays the first touch.  Fixed thresholds turn off
  // glibc's dynamic ones, under which multi-MiB decoder arenas came from
  // fresh mmap pages in some runs and from recycled heap in others, so
  // set-up and first rounds swung with what had run before.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif

  Json out;
  out.str("workload", workload_name(a.workload))
      .integer("seed", a.seed)
      .integer("trace", a.trace ? 1 : 0)
      .obj("provenance", provenance());
  const bool ok = a.trace ? traced(a, out) : measure(a, out);
  out.boolean("ok", ok);
  std::printf("%s\n", out.text().c_str());
  return ok ? 0 : 1;
}
