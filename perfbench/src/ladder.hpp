// The ladder rungs: isolated calls into one layer's public functions at the
// shapes the workloads use, each timed in batches (one span per batch).
#pragma once

#include "common.hpp"

namespace perfbench {

/// Runs every rung and returns its per-layer values by metric name.  Seeds
/// for the rungs' random inputs derive from `seed`.
Json run_ladder(std::uint64_t seed, Tracer& tr);

}  // namespace perfbench
