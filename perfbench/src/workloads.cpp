#include "workloads.hpp"

#include <memory>
#include <utility>

#include "coding/streaming_swarm.hpp"
#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/sharded_round.hpp"
#include "core/swarm_storage.hpp"
#include "core/uniform_ag.hpp"
#include "graph/generators.hpp"
#include "linalg/rank_tracker.hpp"
#include "net/swarm_runner.hpp"
#include "net/udp_transport.hpp"
#include "net/wire.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/topology.hpp"

namespace perfbench {

namespace {

using namespace ag;

// Seed purposes for derive(): one stream per kind of input.
enum : std::uint64_t { kGraphSeed = 11, kPlacementSeed = 12, kRunSeed = 13 };

// large_n_gf2: the ROADMAP's pinned scaling configuration, measured at S = 1.
// A 4-shard run on a shared 4-vCPU host stalls at every round barrier while
// any one vCPU is preempted, so its wall time is not steady enough to gate;
// the traced run adds the S = 4 pass (core.shard_speedup).
constexpr std::size_t kLargeN = 100000, kLargeK = 32, kLargeShards = 1;
// paper_gf256: a Theorem 3 cell (constant degree, Theta(k + D)).
constexpr std::size_t kPaperN = 512, kPaperDegree = 4, kPaperK = 128, kPaperPayload = 1024;
// udp_swarm: small frames, all nodes in one process on one thread.
constexpr std::size_t kUdpN = 256, kUdpK = 32, kUdpPayload = 64;
// stream_rarest: generation-windowed coding over a long stream.
constexpr std::size_t kStreamN = 256, kStreamG = 16, kStreamW = 4, kStreamPayload = 256;
constexpr std::uint64_t kStreamM = 2048;
constexpr std::size_t kStreamInjectPerRound = 2;

constexpr std::uint64_t kMaxRounds = 1000000;

// One delivery per (node, message) at the node's finish round: a one-shot
// node decodes every message the round it reaches full rank.
template <typename Swarm>
std::vector<std::uint64_t> finish_histogram(const Swarm& swarm) {
  std::vector<std::uint64_t> hist;
  const std::uint64_t k = swarm.message_count();
  for (std::size_t v = 0; v < swarm.node_count(); ++v) {
    const std::uint64_t r = swarm.finish_round(static_cast<graph::NodeId>(v));
    if (r == Swarm::kNotFinished) continue;
    if (hist.size() <= r) hist.resize(r + 1, 0);
    hist[r] += k;
  }
  return hist;
}

// Drives a synchronous protocol exactly like sim::run's synchronous branch,
// with spans around the activation loop and the round barrier.
template <typename P>
sim::RunResult traced_sync_run(P& proto, sim::Rng& rng, Tracer& tr, std::uint32_t rep,
                               std::string_view layer) {
  const std::uint32_t s_round = tr.intern(std::string(layer) + ".round");
  const std::uint32_t s_act = tr.intern(std::string(layer) + ".activate");
  const std::uint32_t s_end = tr.intern(std::string(layer) + ".end_round");
  const auto n = static_cast<std::uint64_t>(proto.node_count());
  sim::RunResult res;
  if (n == 0 || proto.finished()) {
    res.completed = true;
    return res;
  }
  for (std::uint64_t r = 0; r < kMaxRounds; ++r) {
    Scope round(tr, s_round, rep);
    {
      Scope act(tr, s_act, rep);
      for (graph::NodeId v = 0; v < n; ++v) proto.on_activate(v, rng);
    }
    {
      Scope end(tr, s_end, rep);
      proto.end_round();
    }
    if (proto.finished()) {
      res.completed = true;
      res.rounds = r + 1;
      res.timeslots = (r + 1) * n;
      return res;
    }
  }
  res.rounds = kMaxRounds;
  return res;
}

template <typename P>
sim::RunResult run_sync(P& proto, sim::Rng& rng, Tracer& tr, std::uint32_t rep,
                        std::string_view layer) {
  if (tr.enabled()) return traced_sync_run(proto, rng, tr, rep, layer);
  return sim::run(proto, rng, kMaxRounds);
}

void fail(Rep& r, std::string why) {
  if (r.ok || r.why.empty()) r.why = std::move(why);
  r.ok = false;
}

Rep large_n(std::uint64_t seed, const RepOptions& opt, Tracer& tr, std::uint32_t rep) {
  using Proto = core::ShardedUniformAG<linalg::BitRankTracker, core::BitRankStore>;
  Rep out;
  const auto t_setup = Clock::now();
  std::unique_ptr<Proto> proto;
  {
    Scope s(tr, tr.intern("setup.protocol"), rep);
    sim::Rng prng(derive(seed, kPlacementSeed, 0));
    const core::Placement pl = core::uniform_distinct(kLargeK, kLargeN, prng);
    proto = std::make_unique<Proto>(std::make_unique<sim::CompleteTopology>(kLargeN), pl,
                                    core::AgConfig{}, derive(seed, kRunSeed, 0), 0,
                                    opt.shards == 0 ? kLargeShards : opt.shards);
  }
  out.setup_s = seconds_since(t_setup);
  out.ok = true;
  if (opt.setup_only) return out;

  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  sim::RunResult res;
  if (tr.enabled()) {
    const std::uint32_t s_step = tr.intern("core.step_round");
    Scope run(tr, tr.intern("core.run"), rep);
    while (!proto->finished() && res.rounds < kMaxRounds) {
      Scope s(tr, s_step, rep);
      proto->step_round();
      ++res.rounds;
    }
    res.completed = proto->finished();
  } else {
    res = proto->run(kMaxRounds);
  }
  out.wall_s = seconds_since(t0);
  out.cpu_s = cpu_seconds() - cpu0;

  const auto& swarm = proto->swarm();
  if (!res.completed || !swarm.all_complete()) fail(out, "large_n_gf2: run did not complete");
  out.rounds = res.rounds;
  out.decoded_bytes = static_cast<double>(kLargeN * kLargeK * 8);  // one k-bit row word
  out.latency_hist = finish_histogram(swarm);
  out.counters.integer("sent", proto->messages_sent())
      .integer("delivered", proto->messages_delivered())
      .integer("dropped", proto->messages_dropped())
      .integer("helpful", swarm.helpful_receives())
      .integer("useless", swarm.useless_receives())
      .integer("decoder_bytes", swarm.decoder_memory_bytes())
      .integer("shards", proto->shard_count());
  return out;
}

Rep paper(std::uint64_t seed, const RepOptions& opt, Tracer& tr, std::uint32_t rep) {
  using Proto = core::UniformAG<core::Gf256Decoder>;
  Rep out;
  const auto t_setup = Clock::now();
  graph::Graph g;
  {
    Scope s(tr, tr.intern("setup.graph"), rep);
    g = graph::make_random_regular(kPaperN, kPaperDegree, derive(seed, kGraphSeed, 0));
  }
  std::unique_ptr<Proto> proto;
  {
    Scope s(tr, tr.intern("setup.protocol"), rep);
    sim::Rng prng(derive(seed, kPlacementSeed, 0));
    core::AgConfig cfg;
    cfg.payload_len = kPaperPayload;
    proto = std::make_unique<Proto>(g, core::uniform_distinct(kPaperK, kPaperN, prng), cfg);
  }
  out.setup_s = seconds_since(t_setup);
  out.ok = true;
  if (opt.setup_only) return out;

  sim::Rng rng(derive(seed, kRunSeed, 0));
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const sim::RunResult res = run_sync(*proto, rng, tr, rep, "core");
  out.wall_s = seconds_since(t0);
  out.cpu_s = cpu_seconds() - cpu0;

  const auto& swarm = proto->swarm();
  if (!res.completed) fail(out, "paper_gf256: run did not complete");
  for (graph::NodeId v = 0; v < kPaperN && out.ok; ++v) {
    for (std::size_t i = 0; i < kPaperK; ++i) {
      if (!swarm.decodes_correctly(v, i)) {
        fail(out, "paper_gf256: node " + std::to_string(v) + " decodes message " +
                      std::to_string(i) + " wrongly");
        break;
      }
    }
  }
  out.rounds = res.rounds;
  out.decoded_bytes = static_cast<double>(kPaperN * kPaperK * kPaperPayload);
  out.latency_hist = finish_histogram(swarm);
  out.counters.integer("sent", proto->messages_sent())
      .integer("delivered", proto->transport_stats().messages_delivered)
      .integer("dropped", proto->messages_dropped())
      .integer("helpful", swarm.helpful_receives())
      .integer("useless", swarm.useless_receives())
      .integer("decoder_bytes", swarm.decoder_memory_bytes());
  return out;
}

Rep udp(std::uint64_t seed, const RepOptions& opt, Tracer& tr, std::uint32_t rep) {
  using Packet = net::Gf256Packet;
  Rep out;
  const auto t_setup = Clock::now();
  net::UdpSocketSet socks;
  std::unique_ptr<net::UdpTransport<Packet>> transport;
  {
    Scope s(tr, tr.intern("setup.sockets"), rep);
    if (!net::UdpSocketSet::available() || !socks.open_loopback(kUdpN)) {
      fail(out, "udp_swarm: cannot open loopback sockets");
      return out;
    }
    net::EndpointTable table(kUdpN);
    std::vector<net::NodeId> local;
    for (std::size_t v = 0; v < kUdpN; ++v) {
      table.set(static_cast<net::NodeId>(v), {net::kLoopbackAddr, socks.port(v)});
      local.push_back(static_cast<net::NodeId>(v));
    }
    transport = std::make_unique<net::UdpTransport<Packet>>(socks, std::move(table),
                                                            std::move(local), kUdpK,
                                                            kUdpPayload);
  }
  out.setup_s = seconds_since(t_setup);
  out.ok = true;
  if (opt.setup_only) return out;

  net::SwarmConfig cfg;
  cfg.n = kUdpN;
  cfg.k = kUdpK;
  cfg.payload_len = kUdpPayload;
  cfg.seed = derive(seed, kRunSeed, 0);
  cfg.timeout_ms = 30000;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  net::SwarmReport r;
  {
    Scope s(tr, tr.intern("net.run_swarm"), rep);
    r = net::run_swarm(*transport, cfg);
  }
  out.wall_s = seconds_since(t0);
  out.cpu_s = cpu_seconds() - cpu0;

  if (!r.ok()) fail(out, "udp_swarm: swarm did not complete with verified payloads");
  if (r.transport.decode_failures != 0) fail(out, "udp_swarm: decode failures");
  if (r.transport.recv_errors != 0) fail(out, "udp_swarm: receive errors");
  out.rounds = r.ticks;
  out.decoded_bytes = static_cast<double>(kUdpN * kUdpK * kUdpPayload);
  // run_swarm reports only cluster-wide completion, so every node's delivery
  // is booked at that tick: an upper bound on each node's latency.
  out.latency_hist.assign(r.ticks + 1, 0);
  out.latency_hist[r.ticks] = kUdpN * kUdpK;

  net::ControlFrame bitmap;
  bitmap.data.assign((kUdpN + 7) / 8, 0);
  std::vector<std::uint8_t> buf;
  out.counters.integer("ticks", r.ticks)
      .integer("sent", r.transport.messages_sent)
      .integer("delivered", r.transport.messages_delivered)
      .integer("dropped", r.transport.messages_dropped)
      .integer("bytes_sent", r.transport.bytes_sent)
      .integer("bytes_received", r.transport.bytes_received)
      .integer("decode_failures", r.transport.decode_failures)
      .integer("recv_errors", r.transport.recv_errors)
      .integer("data_frame_bytes", net::encoded_size<Packet>(kUdpK, kUdpPayload))
      .integer("control_frame_bytes", net::encode_control(bitmap, buf))
      .integer("n", kUdpN)
      .integer("k", kUdpK);
  return out;
}

Rep stream(std::uint64_t seed, const RepOptions& opt, Tracer& tr, std::uint32_t rep) {
  using Proto = coding::StreamingSwarm<core::Gf256Decoder>;
  Rep out;
  coding::StreamConfig cfg;
  cfg.generation_size = kStreamG;
  cfg.window = kStreamW;
  cfg.policy = coding::GenPolicy::RarestFirst;
  cfg.payload_len = kStreamPayload;
  cfg.inject_per_round = kStreamInjectPerRound;
  cfg.total_messages = kStreamM;
  const auto t_setup = Clock::now();
  std::unique_ptr<Proto> proto;
  {
    Scope s(tr, tr.intern("setup.protocol"), rep);
    proto = std::make_unique<Proto>(std::make_unique<sim::CompleteTopology>(kStreamN), cfg);
  }
  out.setup_s = seconds_since(t_setup);
  out.ok = true;
  if (opt.setup_only) return out;

  sim::Rng rng(derive(seed, kRunSeed, 0));
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const sim::RunResult res = run_sync(*proto, rng, tr, rep, "coding");
  out.wall_s = seconds_since(t0);
  out.cpu_s = cpu_seconds() - cpu0;

  if (!res.completed) fail(out, "stream_rarest: stream did not finish");
  if (proto->delivered_messages() != kStreamM * kStreamN) {
    fail(out, "stream_rarest: delivered " + std::to_string(proto->delivered_messages()) +
                  " of " + std::to_string(kStreamM * kStreamN) + " messages");
  }
  out.rounds = res.rounds;
  out.decoded_bytes = static_cast<double>(kStreamM * kStreamN * kStreamPayload);
  out.latency_hist = proto->latency_histogram();
  out.counters.integer("stalled_rounds", proto->stalled_rounds())
      .integer("stale_packets", proto->stale_packets())
      .integer("state_bytes", proto->decoder_state_bytes())
      .integer("sent", proto->messages_sent());
  return out;
}

}  // namespace

bool parse_workload(std::string_view s, Workload& out) {
  for (const Workload w : kAllWorkloads) {
    if (s == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::LargeNGf2: return "large_n_gf2";
    case Workload::PaperGf256: return "paper_gf256";
    case Workload::UdpSwarm: return "udp_swarm";
    case Workload::StreamRarest: return "stream_rarest";
  }
  return "?";
}

std::size_t distinct_seeds(Workload w) {
  switch (w) {
    case Workload::LargeNGf2: return 3;
    case Workload::PaperGf256: return 4;
    case Workload::UdpSwarm: return 32;
    case Workload::StreamRarest: return 4;
  }
  return 1;
}

Rep run_rep(Workload w, std::uint64_t seed, Tracer& tr, std::uint32_t rep_id,
            const RepOptions& opt) {
  switch (w) {
    case Workload::LargeNGf2: return large_n(seed, opt, tr, rep_id);
    case Workload::PaperGf256: return paper(seed, opt, tr, rep_id);
    case Workload::UdpSwarm: return udp(seed, opt, tr, rep_id);
    case Workload::StreamRarest: return stream(seed, opt, tr, rep_id);
  }
  return {};
}

}  // namespace perfbench
