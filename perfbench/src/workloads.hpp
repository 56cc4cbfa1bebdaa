// The four benchmark workloads.  Each run_* call is one repetition: it sets
// the workload up from a repetition seed (timed apart as setup), runs it to
// its stopping point (timed as wall and CPU), and checks its outputs.
//
// With a disabled tracer a repetition drives the library's own loops
// (ShardedUniformAG::run, sim::run, net::run_swarm) and records nothing else.
// With an enabled tracer it drives the same public calls one round at a time
// with spans around them, in exactly sim::run's order, so the stopping round
// must come out identical.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace perfbench {

enum class Workload { LargeNGf2 = 1, PaperGf256 = 2, UdpSwarm = 3, StreamRarest = 4 };

inline constexpr Workload kAllWorkloads[] = {Workload::LargeNGf2, Workload::PaperGf256,
                                             Workload::UdpSwarm, Workload::StreamRarest};

bool parse_workload(std::string_view s, Workload& out);
const char* workload_name(Workload w);

/// Distinct repetition seeds per run: repetition i uses seed index
/// i % distinct_seeds(w), so stop_rounds (a mean over the first pass) is a
/// pure function of --seed however many repetitions fit in the time budget.
std::size_t distinct_seeds(Workload w);

struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t rounds = 0;      ///< stopping round (ticks for udp_swarm)
  double decoded_bytes = 0;      ///< n * k * payload bytes decoded
  std::vector<std::uint64_t> latency_hist;  ///< delivery latency in rounds -> count
  bool ok = false;
  std::string why;               ///< first failed check, empty when ok
  Json counters;                 ///< layer counters (filled by traced repetitions)
};

struct RepOptions {
  std::size_t shards = 0;   ///< large_n_gf2 only; 0 = the measured S = 1
  bool setup_only = false;  ///< stop after the timed setup (setup_s trials)
};

/// One repetition of workload `w` from repetition seed `seed`.
Rep run_rep(Workload w, std::uint64_t seed, Tracer& tr, std::uint32_t rep_id,
            const RepOptions& opt = {});

}  // namespace perfbench
