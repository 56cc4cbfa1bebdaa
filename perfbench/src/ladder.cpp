#include "ladder.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/swarm.hpp"
#include "core/swarm_storage.hpp"
#include "gf/bulk_ops.hpp"
#include "graph/generators.hpp"
#include "linalg/rank_tracker.hpp"
#include "net/swarm_runner.hpp"
#include "net/udp_transport.hpp"
#include "net/wire.hpp"
#include "sim/rng.hpp"
#include "sim/transport.hpp"

namespace perfbench {

namespace {

using namespace ag;

enum : std::uint64_t { kRungSeed = 21, kRungGraphSeed = 22 };

// Every rung does a fixed amount of work (a fixed number of batches), so a
// rung measures the same thing on any machine and any commit; only the time
// it takes moves.  prepare() runs before each batch's clock starts.
struct Timed {
  double seconds = 0;
  double items = 0;
  double per_item_s() const { return seconds / items; }
};

template <typename Prepare, typename Batch>
Timed timed_batches(Tracer& tr, const char* name, int batches, Prepare&& prepare,
                    Batch&& batch) {
  const std::uint32_t id = tr.intern(name);
  Timed t;
  for (int b = 0; b < batches; ++b) {
    prepare();
    Scope s(tr, id, static_cast<std::uint32_t>(b));
    const auto t0 = Clock::now();
    t.items += static_cast<double>(batch());
    t.seconds += seconds_since(t0);
  }
  return t;
}

const auto kNothing = [] {};

std::vector<std::uint8_t> random_bytes(std::size_t n, sim::Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

// GF(256) axpy over 16 cache-resident row pairs of `width` bytes.  Bytes
// moved are computed, not measured: 3 per element (load dst, load src,
// store dst).
double axpy_gbps(std::size_t width, int reps, sim::Rng& rng, Tracer& tr, const char* name) {
  constexpr std::size_t kRows = 16;
  std::vector<std::uint8_t> dst = random_bytes(width * kRows, rng);
  const std::vector<std::uint8_t> src = random_bytes(width * kRows, rng);
  std::vector<std::uint8_t> cs(kRows);
  for (auto& c : cs) c = static_cast<std::uint8_t>(2 + rng.uniform(254));
  const Timed t = timed_batches(tr, name, 20, kNothing, [&] {
    for (int r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < kRows; ++i) {
        gf::axpy_gf256(std::span<std::uint8_t>(dst.data() + i * width, width),
                       std::span<const std::uint8_t>(src.data() + i * width, width), cs[i]);
      }
    }
    return static_cast<std::size_t>(reps) * kRows;
  });
  return 3.0 * static_cast<double>(width) * t.items / t.seconds / 1e9;
}

double xor_word_ns(sim::Rng& rng, Tracer& tr) {
  constexpr std::size_t kWords = 1024;
  std::vector<std::uint64_t> dst(kWords), src(kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    dst[i] = rng();
    src[i] = rng();
  }
  const Timed t = timed_batches(tr, "rung.gf.xor_words", 20, kNothing, [&] {
    for (int r = 0; r < 200; ++r) {
      for (std::size_t i = 0; i < kWords; ++i) {
        gf::xor_words(std::span<std::uint64_t>(&dst[i], 1),
                      std::span<const std::uint64_t>(&src[i], 1));
      }
    }
    return 200 * kWords;
  });
  return t.per_item_s() * 1e9;
}

// Random combinations of a full-rank source: the packets a decoder receives.
template <typename D>
std::vector<typename D::packet_type> coded_pool(std::size_t k, std::size_t payload,
                                                std::size_t count, sim::Rng& rng) {
  D src(k, payload);
  for (std::size_t i = 0; i < k; ++i) {
    src.insert(src.unit_packet(i, core::RlncSwarm<D>::expected_payload(i, payload)));
  }
  std::vector<typename D::packet_type> pool(count);
  for (auto& pkt : pool) src.random_combination_into(rng, pkt);
  return pool;
}

// k = 32 GF(2) rank-tracker inserts, fill-to-full-rank over 256 trackers
// that stay in cache (~100 KiB together).
double bit_insert_ns(sim::Rng& rng, Tracer& tr) {
  constexpr std::size_t kK = 32, kTrackers = 256;
  const auto pool = coded_pool<linalg::BitRankTracker>(kK, 0, 4096, rng);
  std::vector<linalg::BitRankTracker> ds;
  std::size_t next = 0;
  const Timed t = timed_batches(
      tr, "rung.linalg.bit_insert", 20,
      [&] { ds.assign(kTrackers, linalg::BitRankTracker(kK)); },
      [&] {
        std::size_t calls = 0;
        for (auto& d : ds) {
          while (!d.full_rank()) {
            d.insert(pool[next]);
            next = (next + 1) % pool.size();
            ++calls;
          }
        }
        return calls;
      });
  return t.per_item_s() * 1e9;
}

// GF(256) dense decoder fill to full rank, recycled with clear().
double dense_insert_us(std::size_t k, std::size_t payload, int batches, sim::Rng& rng,
                       Tracer& tr, const char* name) {
  const auto pool = coded_pool<core::Gf256Decoder>(k, payload, 2 * k + 64, rng);
  core::Gf256Decoder d(k, payload);
  std::size_t next = 0;
  const Timed t = timed_batches(tr, name, batches, [&] { d.clear(); }, [&] {
    std::size_t calls = 0;
    while (!d.full_rank()) {
      d.insert(pool[next]);
      next = (next + 1) % pool.size();
      ++calls;
    }
    return calls;
  });
  return t.per_item_s() * 1e6;
}

double dense_combine_us(sim::Rng& rng, Tracer& tr) {
  constexpr std::size_t kK = 128, kPayload = 1024;
  core::Gf256Decoder src(kK, kPayload);
  for (std::size_t i = 0; i < kK; ++i) {
    src.insert(src.unit_packet(
        i, core::RlncSwarm<core::Gf256Decoder>::expected_payload(i, kPayload)));
  }
  core::Gf256Decoder::packet_type out;
  const Timed t = timed_batches(tr, "rung.linalg.dense_combine", 20, kNothing, [&] {
    for (int i = 0; i < 50; ++i) src.random_combination_into(rng, out);
    return 50;
  });
  return t.per_item_s() * 1e6;
}

// RlncSwarm::receive into 100 000 pooled k = 32 rank trackers at random
// destinations: the insert of large_n_gf2, out of cache.  Fixed work: 2M
// receives, so the rank mix the inserts see is the same on every run.
double swarm_insert_ns(std::uint64_t seed, sim::Rng& rng, Tracer& tr) {
  constexpr std::size_t kN = 100000, kK = 32, kBatch = 250000;
  sim::Rng prng(derive(seed, kRungSeed, 1));
  core::RlncSwarm<linalg::BitRankTracker, core::BitRankStore> swarm(
      kN, core::uniform_distinct(kK, kN, prng), 0);
  const auto pool = coded_pool<linalg::BitRankTracker>(kK, 0, 4096, rng);
  std::vector<graph::NodeId> dest(kBatch);
  std::size_t next = 0;
  const Timed t = timed_batches(
      tr, "rung.core.swarm_insert", 8,
      [&] {
        for (auto& d : dest) d = static_cast<graph::NodeId>(rng.uniform(kN));
      },
      [&] {
        for (const graph::NodeId v : dest) {
          swarm.receive(v, pool[next], 1);
          next = (next + 1) % pool.size();
        }
        return kBatch;
      });
  return t.per_item_s() * 1e9;
}

// SimTransport send + drain of the paper_gf256 packet (k = 128, 1024 B).
double sim_transport_mfps(sim::Rng& rng, Tracer& tr) {
  using Packet = core::Gf256Decoder::packet_type;
  constexpr std::size_t kFrames = 512;
  const auto pool = coded_pool<core::Gf256Decoder>(128, 1024, 1, rng);
  sim::SimTransport<Packet> t(sim::TimeModel::Synchronous, false);
  std::uint64_t seen = 0;
  auto count = [&](graph::NodeId, graph::NodeId, const Packet&) { ++seen; };
  const Timed tm = timed_batches(tr, "rung.sim.transport", 40, kNothing, [&] {
    for (std::size_t i = 0; i < kFrames; ++i) {
      t.send(static_cast<graph::NodeId>(i), static_cast<graph::NodeId>((i + 1) % kFrames),
             pool[0], sim::DeliverRef<Packet>(count));
    }
    t.drain(sim::DeliverRef<Packet>(count));
    return kFrames;
  });
  return seen == static_cast<std::uint64_t>(tm.items) ? tm.items / tm.seconds / 1e6 : 0.0;
}

double graph_build_s(std::uint64_t seed, Tracer& tr) {
  std::vector<double> s;
  const std::uint32_t id = tr.intern("rung.graph.build");
  for (std::uint32_t i = 0; i < 5; ++i) {
    Scope sc(tr, id, i);
    const auto t0 = Clock::now();
    const graph::Graph g = graph::make_random_regular(512, 4, derive(seed, kRungGraphSeed, i));
    s.push_back(seconds_since(t0));
    if (g.node_count() != 512) return 0.0;
  }
  std::sort(s.begin(), s.end());
  return s[s.size() / 2];
}

// Wire codec at the udp_swarm frame shape (GF(256), k = 32, 64 B payload).
void codec_mfps(sim::Rng& rng, Tracer& tr, double& enc, double& dec) {
  using Packet = net::Gf256Packet;
  constexpr int kFrames = 20000;
  const auto pool = coded_pool<core::Gf256Decoder>(32, 64, 1, rng);
  std::vector<std::uint8_t> frame;
  const Timed te = timed_batches(tr, "rung.net.encode", 10, kNothing, [&] {
    for (int i = 0; i < kFrames; ++i) net::encode_into(pool[0], 32, frame);
    return kFrames;
  });
  Packet out;
  std::size_t ok = 0;
  const Timed td = timed_batches(tr, "rung.net.decode", 10, kNothing, [&] {
    for (int i = 0; i < kFrames; ++i) {
      ok += net::decode_into(std::span<const std::uint8_t>(frame), 32, 64, out) ==
            net::DecodeStatus::Ok;
    }
    return kFrames;
  });
  enc = te.items / te.seconds / 1e6;
  dec = ok == static_cast<std::size_t>(td.items) && out.payload == pool[0].payload
            ? td.items / td.seconds / 1e6
            : 0.0;
}

// Bare UdpTransport on loopback at the udp_swarm shape: 256 node sockets in
// one process, each sending one frame to a random peer, then one drain --
// a swarm tick with no coding, no control gossip and no idle wait.
double udp_fps(sim::Rng& rng, Tracer& tr) {
  using Packet = net::Gf256Packet;
  constexpr std::size_t kN = 256;
  net::UdpSocketSet socks;
  if (!socks.open_loopback(kN)) return 0.0;
  net::EndpointTable table(kN);
  std::vector<net::NodeId> local;
  for (std::size_t v = 0; v < kN; ++v) {
    table.set(static_cast<net::NodeId>(v), {net::kLoopbackAddr, socks.port(v)});
    local.push_back(static_cast<net::NodeId>(v));
  }
  net::UdpTransport<Packet> t(socks, std::move(table), std::move(local), 32, 64);
  const auto pool = coded_pool<core::Gf256Decoder>(32, 64, 1, rng);
  std::uint64_t got = 0;
  auto count = [&](net::NodeId, net::NodeId, const Packet&) { ++got; };
  const Timed tm = timed_batches(tr, "rung.net.udp", 20, kNothing, [&] {
    for (int tick = 0; tick < 32; ++tick) {
      for (std::size_t v = 0; v < kN; ++v) {
        auto peer = static_cast<net::NodeId>(rng.uniform(kN - 1));
        if (peer >= v) ++peer;
        t.send(static_cast<net::NodeId>(v), peer, pool[0], sim::DeliverRef<Packet>(count));
      }
      t.drain(sim::DeliverRef<Packet>(count));
    }
    return 32 * kN;
  });
  return got == static_cast<std::uint64_t>(tm.items) ? tm.items / tm.seconds : 0.0;
}

}  // namespace

Json run_ladder(std::uint64_t seed, Tracer& tr) {
  sim::Rng rng(derive(seed, kRungSeed, 0));
  Json j;
  j.num("gf.axpy256_GBps.row1152", axpy_gbps(1152, 1000, rng, tr, "rung.gf.axpy256.row1152"));
  j.num("gf.axpy256_GBps.row96", axpy_gbps(96, 4000, rng, tr, "rung.gf.axpy256.row96"));
  j.num("gf.xor_words_ns.w1", xor_word_ns(rng, tr));
  j.num("linalg.bit_insert_ns.hot", bit_insert_ns(rng, tr));
  j.num("linalg.dense_insert_us.hot",
        dense_insert_us(128, 1024, 40, rng, tr, "rung.linalg.dense_insert.hot"));
  j.num("linalg.dense_combine_us.hot", dense_combine_us(rng, tr));
  j.num("linalg.dense_insert_us.g16",
        dense_insert_us(16, 256, 4000, rng, tr, "rung.linalg.dense_insert.g16"));
  j.num("core.swarm_insert_ns", swarm_insert_ns(seed, rng, tr));
  j.num("sim.transport_Mfps", sim_transport_mfps(rng, tr));
  j.num("graph.build_s", graph_build_s(seed, tr));
  double enc = 0, dec = 0;
  codec_mfps(rng, tr, enc, dec);
  j.num("net.encode_Mfps", enc).num("net.decode_Mfps", dec);
  j.num("net.udp_fps", udp_fps(rng, tr));
  return j;
}

}  // namespace perfbench
