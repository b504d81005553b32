// Conservative parallel scheduler (sim::ShardedEngine) acceptance tests:
// shard-count byte-identity, canonical cross-shard commit order, the
// lookahead the fabric sets (and the zero lookahead it rejects), and the
// TimeNs saturation regressions at the epoch horizon (DESIGN.md §11).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "experiments/chiba.hpp"
#include "kernel/cluster.hpp"
#include "knet/stack.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/time.hpp"

namespace ktau {
namespace {

using sim::Engine;
using sim::ShardedEngine;
using sim::TimeNs;

std::uint64_t fold(std::uint64_t state, std::uint64_t v) {
  std::uint64_t z = state * 0x9E3779B97F4A7C15ull + v;
  z = (z ^ (z >> 29)) * 0xBF58476D1CE4E5B9ull;
  return z ^ (z >> 32);
}

// ---------------------------------------------------------------------------
// Shard-count invariance on a synthetic ring topology.
// ---------------------------------------------------------------------------

struct RingNode {
  std::uint64_t state = 0;
  std::uint64_t ticks = 0;
};

struct RingCtx {
  ShardedEngine* se = nullptr;
  std::vector<RingNode>* nodes = nullptr;
  unsigned shards = 1;
  std::uint32_t n = 0;
  TimeNs stop = 0;
};

constexpr TimeNs kRingLookahead = 70 * sim::kMicrosecond;
constexpr TimeNs kRingSpacing = 5 * sim::kMicrosecond;

void ring_tick(RingCtx* c, std::uint32_t id) {
  Engine& e = c->se->shard(id % c->shards);
  RingNode& nd = (*c->nodes)[id];
  nd.state = fold(nd.state, id);
  ++nd.ticks;
  // Order-sensitive messages to two neighbours, arriving exactly one
  // lookahead later — equal-time collisions with the receivers' own ticks
  // and with each other exercise the canonical commit order.
  const auto send_to = [&](std::uint32_t dst) {
    const std::uint64_t payload = nd.state ^ dst;
    RingCtx* ctx = c;
    c->se->cross_schedule(id % c->shards, id, dst % c->shards,
                          e.now() + kRingLookahead, [ctx, dst, payload] {
                            RingNode& peer = (*ctx->nodes)[dst];
                            peer.state = fold(peer.state, payload);
                          });
  };
  if (nd.ticks % 3 == 0) send_to((id + 1) % c->n);
  if (nd.ticks % 4 == 0) send_to((id + 3) % c->n);
  if (e.now() + kRingSpacing <= c->stop) {
    e.schedule_after(kRingSpacing, [c, id] { ring_tick(c, id); });
  }
}

std::uint64_t run_ring(std::uint32_t n, unsigned shards) {
  ShardedEngine se(shards, kRingLookahead);
  std::vector<RingNode> nodes(n);
  RingCtx ctx{&se, &nodes, se.shards(), n, sim::kMillisecond};
  for (std::uint32_t id = 0; id < n; ++id) {
    nodes[id].state = id * 0x2545F4914F6CDD1Dull + 1;
    RingCtx* c = &ctx;
    se.shard(id % se.shards())
        .schedule_at((id * 677u) % kRingSpacing,
                     [c, id] { ring_tick(c, id); });
  }
  se.run_until(sim::kMillisecond);
  std::uint64_t sum = se.executed_total();
  for (const RingNode& nd : nodes) sum = fold(sum, nd.state ^ nd.ticks);
  return sum;
}

TEST(ParallelSim, RingIdenticalAcrossShardCounts) {
  const std::uint64_t ref = run_ring(24, 1);
  EXPECT_EQ(run_ring(24, 2), ref);
  EXPECT_EQ(run_ring(24, 4), ref);
  EXPECT_EQ(run_ring(24, 8), ref);
}

// ---------------------------------------------------------------------------
// Canonical commit order at equal timestamps.
// ---------------------------------------------------------------------------

TEST(ParallelSim, EqualTimestampCommitsOrderBySourceKeyThenEmitOrder) {
  ShardedEngine se(2, 100);
  std::vector<int> order;
  // Shard 0 hosts source key 5, shard 1 hosts source key 3; all four
  // messages arrive at the same destination at the same instant.  The
  // canonical order is (time, src_key, per-source emit order): key 3's two
  // messages first, each source's pair in emit order — independent of
  // which worker filled its outbox first.
  se.shard(0).schedule_at(10, [&] {
    se.cross_schedule(0, 5, 0, 110, [&] { order.push_back(50); });
    se.cross_schedule(0, 5, 0, 110, [&] { order.push_back(51); });
  });
  se.shard(1).schedule_at(10, [&] {
    se.cross_schedule(1, 3, 0, 110, [&] { order.push_back(30); });
    se.cross_schedule(1, 3, 0, 110, [&] { order.push_back(31); });
  });
  se.run();
  EXPECT_EQ(order, (std::vector<int>{30, 31, 50, 51}));
}

TEST(ParallelSim, SameShardCrossSendsAlsoCommitAtTheBarrier) {
  // A message whose destination shares the sender's shard must still be
  // deferred to the barrier: committed arrivals get their sequence numbers
  // after everything the window scheduled locally, for every shard count.
  ShardedEngine se(1, 100);
  std::vector<int> order;
  se.shard(0).schedule_at(0, [&] {
    se.cross_schedule(0, 7, 0, 100, [&] { order.push_back(1); });
    // Locally scheduled same-time event: enqueued immediately, so it gets
    // the earlier sequence number even though it was requested second.
    se.shard(0).schedule_at(100, [&] { order.push_back(2); });
  });
  se.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_GE(se.epochs(), 2u);
}

// ---------------------------------------------------------------------------
// Lookahead: positive, and set by the fabric.
// ---------------------------------------------------------------------------

TEST(ParallelSim, ZeroLookaheadThrows) {
  // An empty window would spin at the barrier forever.
  EXPECT_THROW(ShardedEngine se(8, 0), std::invalid_argument);
  kernel::Cluster cluster;
  cluster.add_machine(kernel::MachineConfig{});
  knet::NetConfig net;
  net.latency = 0;
  EXPECT_THROW(knet::Fabric fabric(cluster, net), std::invalid_argument);
}

kernel::Program ping(int fd, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await kernel::SendMsg{fd, 4096};
    co_await kernel::RecvMsg{fd, 4096};
  }
}

kernel::Program pong(int fd, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await kernel::RecvMsg{fd, 4096};
    co_await kernel::SendMsg{fd, 4096};
  }
}

// A 2-node ping-pong; returns (ping end, pong end, events, epochs).
std::tuple<TimeNs, TimeNs, std::uint64_t, std::uint64_t> exchange_fingerprint(
    const kernel::ShardPlan& plan) {
  knet::NetConfig net;
  net.latency_jitter_mean = 0;
  kernel::Cluster cluster(plan);
  kernel::Machine& a = cluster.add_machine(kernel::MachineConfig{});
  kernel::Machine& b = cluster.add_machine(kernel::MachineConfig{});
  knet::Fabric fabric(cluster, net);
  EXPECT_EQ(cluster.lookahead(), net.latency);
  const auto conn = fabric.connect(0, 1);
  kernel::Task& tx = a.spawn("ping");
  tx.program = ping(conn.fd_a, 20);
  kernel::Task& rx = b.spawn("pong");
  rx.program = pong(conn.fd_b, 20);
  a.launch(tx);
  b.launch(rx);
  cluster.run();
  EXPECT_TRUE(tx.exited);
  EXPECT_TRUE(rx.exited);
  return {tx.end_time, rx.end_time, cluster.executed_total(),
          cluster.sharded_engine().epochs()};
}

TEST(ParallelSim, FabricLowersTheLookaheadToTheLinkLatency) {
  const knet::NetConfig net;
  kernel::Cluster plain;
  plain.add_machine(kernel::MachineConfig{});
  // No fabric, no cross-node traffic: the lookahead is unbounded.
  EXPECT_EQ(plain.lookahead(), sim::kTimeMax);
  knet::Fabric plain_fabric(plain, net);
  EXPECT_EQ(plain.lookahead(), net.latency);

  kernel::Cluster wide(kernel::ShardPlan{2, 10 * net.latency});
  wide.add_machine(kernel::MachineConfig{});
  knet::Fabric wide_fabric(wide, net);
  EXPECT_EQ(wide.lookahead(), net.latency);

  // Every cluster with a fabric commits cross-node sends through epochs,
  // identically for every shard count.
  const auto one = exchange_fingerprint(kernel::ShardPlan{1});
  EXPECT_GT(std::get<3>(one), 0u);
  EXPECT_EQ(exchange_fingerprint(kernel::ShardPlan{2}), one);
}

// ---------------------------------------------------------------------------
// TimeNs saturation at the horizon.
// ---------------------------------------------------------------------------

TEST(ParallelSim, TimeAddSatClampsInsteadOfWrapping) {
  EXPECT_EQ(sim::time_add_sat(sim::kTimeMax - 5, 3), sim::kTimeMax - 2);
  EXPECT_EQ(sim::time_add_sat(sim::kTimeMax - 5, 5), sim::kTimeMax);
  EXPECT_EQ(sim::time_add_sat(sim::kTimeMax - 5, 6), sim::kTimeMax);
  EXPECT_EQ(sim::time_add_sat(sim::kTimeMax, sim::kTimeMax), sim::kTimeMax);
  EXPECT_EQ(sim::time_add_sat(0, 0), 0u);
}

TEST(ParallelSim, ScheduleAfterSaturatesNearTheLimit) {
  Engine e;
  bool ran = false;
  e.schedule_at(sim::kTimeMax - 5, [&] {
    // A wrapping sum would clamp to now() and re-fire forever; the
    // saturating sum lands the event exactly at kTimeMax once.
    e.schedule_after(100, [&] { ran = true; });
  });
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.now(), sim::kTimeMax);
  EXPECT_EQ(e.executed(), 2u);
}

TEST(ParallelSim, EpochedRunTerminatesWithEventsAtTimeMax) {
  // A saturated horizon (m + L overflows) must still admit events sitting
  // exactly at kTimeMax — the window runs inclusively — and the run must
  // terminate with identical results for every shard count.
  for (const unsigned shards : {1u, 2u}) {
    ShardedEngine se(shards, 1000);
    std::vector<TimeNs> fired;
    se.shard(0).schedule_at(sim::kTimeMax - 10, [&] {
      se.cross_schedule(0, 0, shards - 1, sim::kTimeMax,
                        [&] { fired.push_back(sim::kTimeMax); });
    });
    se.run();
    ASSERT_EQ(fired.size(), 1u) << "shards=" << shards;
    EXPECT_EQ(se.executed_total(), 2u);
  }
}

TEST(ParallelSim, InclusiveWindowDefersEventsScheduledAtTheHorizon) {
  // An event at kTimeMax that reschedules itself at kTimeMax (schedule_after
  // saturates) must not pin run_events_below's inclusive window: only events
  // pending at window entry are admitted at exactly the horizon.
  Engine e;
  int fired = 0;
  std::function<void()> self = [&] {
    ++fired;
    e.schedule_after(5, [&] { self(); });
  };
  e.schedule_at(sim::kTimeMax, [&] { self(); });
  e.run_events_below(sim::kTimeMax, /*inclusive=*/true);  // must terminate
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending(), 1u);
  e.run_events_below(sim::kTimeMax, /*inclusive=*/true);
  EXPECT_EQ(fired, 2);
}

TEST(ParallelSim, LookaheadViolationThrowsEvenInReleaseBuilds) {
  // The conservative bound on cross_schedule (t >= src now + lookahead) is
  // checked always-on, not just by a debug assert: a violating schedule
  // would silently corrupt the epoch-window safety argument in the
  // optimized CI builds.
  ShardedEngine se(1, 100);
  se.shard(0).schedule_at(10, [&] {
    se.cross_schedule(0, 0, 0, 50, [] {});  // 50 < 10 + 100
  });
  EXPECT_THROW(se.run(), std::logic_error);
}

TEST(ParallelSim, RunUntilStopsAtTheBoundAndAdvancesClocks) {
  ShardedEngine se(2, 50);
  int ran = 0;
  se.shard(0).schedule_at(100, [&] { ++ran; });
  se.shard(1).schedule_at(200, [&] { ++ran; });
  se.run_until(150);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(se.now(), 150u);
  EXPECT_EQ(se.pending_total(), 1u);
  se.run_until(250);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(se.now(), 250u);
}

// ---------------------------------------------------------------------------
// Reserve pre-sizing.
// ---------------------------------------------------------------------------

TEST(ParallelSim, ReserveCoversSteadyStateWithoutGrowth) {
  ShardedEngine se(2, 100);
  se.reserve(64, 32);
  for (int i = 0; i < 32; ++i) {
    se.shard(i % 2).schedule_at(static_cast<TimeNs>(i), [] {});
  }
  se.run();
  EXPECT_EQ(se.pool_grows_total(), 0u);
  EXPECT_EQ(se.mailbox_grows(), 0u);
}

// ---------------------------------------------------------------------------
// Full-stack byte-identity: a small chiba run at 1 vs 4 sim threads.
// ---------------------------------------------------------------------------

std::uint64_t chiba_fingerprint(int sim_threads) {
  expt::ChibaRunConfig cfg;
  cfg.config = expt::ChibaConfig::C64x2;
  cfg.workload = expt::Workload::LU;
  cfg.ranks = 8;
  cfg.scale = 0.02;
  cfg.seed = 11;
  cfg.sim_threads = sim_threads;
  const expt::ChibaRunResult run = expt::run_chiba(cfg);
  std::uint64_t h = run.engine_events;
  const auto mix_double = [&](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    h = fold(h, bits);
  };
  mix_double(run.exec_sec);
  for (const auto& rs : run.ranks) {
    mix_double(rs.exec_sec);
    mix_double(rs.vol_sched_sec);
    mix_double(rs.tcp_us_per_call);
    h = fold(h, rs.tcp_calls);
  }
  h = fold(h, run.overhead_samples);
  mix_double(run.overhead_start_mean);
  return h;
}

TEST(ParallelSim, ChibaBitIdenticalAcrossSimThreads) {
  const std::uint64_t ref = chiba_fingerprint(1);
  EXPECT_EQ(chiba_fingerprint(4), ref);
}

}  // namespace
}  // namespace ktau
