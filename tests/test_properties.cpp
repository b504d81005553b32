// Property-based / parameterized tests: structural invariants that must
// hold for any workload mix, topology, and seed.
#include <gtest/gtest.h>

#include <tuple>

#include "kernel/cluster.hpp"
#include "knet/stack.hpp"
#include "ktau/snapshot.hpp"
#include "libktau/libktau.hpp"
#include "sim/rng.hpp"

namespace ktau {
namespace {

using kernel::Cluster;
using kernel::Machine;
using kernel::MachineConfig;
using kernel::Program;
using kernel::Task;
using sim::kMillisecond;

// ---------------------------------------------------------------------------
// Scheduler invariants over (cpus, tasks, seed)
// ---------------------------------------------------------------------------

class SchedulerProps
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

Program mixed_workload(std::uint64_t seed, int steps) {
  sim::Rng rng(seed);
  for (int i = 0; i < steps; ++i) {
    switch (rng.next_below(5)) {
      case 0:
        co_await kernel::Compute{1 + rng.next_below(20) * kMillisecond};
        break;
      case 1:
        co_await kernel::SleepFor{1 + rng.next_below(10) * kMillisecond};
        break;
      case 2:
        co_await kernel::NullSyscall{};
        break;
      case 3:
        co_await kernel::Yield{};
        break;
      case 4:
        co_await kernel::Fault{};
        break;
    }
  }
}

TEST_P(SchedulerProps, InvariantsHoldForAnyMix) {
  const auto [cpus, ntasks, seed] = GetParam();
  Cluster cluster;
  MachineConfig cfg;
  cfg.cpus = static_cast<std::uint32_t>(cpus);
  cfg.seed = static_cast<std::uint64_t>(seed);
  Machine& m = cluster.add_machine(cfg);
  std::vector<Task*> tasks;
  for (int i = 0; i < ntasks; ++i) {
    Task& t = m.spawn(std::string("t").append(std::to_string(i)));
    t.program = mixed_workload(seed * 97 + i, 30);
    tasks.push_back(&t);
    m.launch(t);
  }
  cluster.run();

  // 1. Everything terminates.
  for (Task* t : tasks) {
    EXPECT_TRUE(t->exited);
    EXPECT_GE(t->end_time, t->start_time);
  }
  EXPECT_EQ(m.live_count(), 0u);

  // 2. Every reaped profile is structurally sound.
  for (const auto& r : m.ktau().reaped()) {
    EXPECT_EQ(r.profile.stack_depth(), 0u) << r.name;
    for (const auto& metric : r.profile.all_metrics()) {
      EXPECT_GE(metric.incl, metric.excl);
    }
    // 3. Voluntary/involuntary schedule counts have matched entry/exits:
    //    counts are only recorded on exit, so a dangling frame would have
    //    shown up as non-zero stack depth above.
  }

  // 4. Simulated time advanced and all CPUs ended quiescent.
  EXPECT_GT(cluster.now(), 0u);
  for (std::uint32_t c = 0; c < m.cpu_count(); ++c) {
    EXPECT_TRUE(m.cpu(c).idle());
    EXPECT_TRUE(m.cpu(c).runqueue.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerProps,
    ::testing::Combine(::testing::Values(1, 2, 4),      // cpus
                       ::testing::Values(1, 3, 8),      // tasks
                       ::testing::Values(1, 7, 1234)),  // seed
    [](const auto& info) {
      return "cpus" + std::to_string(std::get<0>(info.param)) + "_tasks" +
             std::to_string(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Compute-time conservation: total CPU given equals total demanded
// ---------------------------------------------------------------------------

class ComputeConservation : public ::testing::TestWithParam<int> {};

TEST_P(ComputeConservation, WallTimeAtLeastDemandPerCpu) {
  const int ntasks = GetParam();
  Cluster cluster;
  MachineConfig cfg;
  cfg.cpus = 2;
  cfg.ktau.charge_overhead = false;
  cfg.smp_compute_dilation = 0.0;
  Machine& m = cluster.add_machine(cfg);
  const sim::TimeNs per_task = 200 * kMillisecond;
  for (int i = 0; i < ntasks; ++i) {
    Task& t = m.spawn(std::string("t").append(std::to_string(i)));
    t.program = [](sim::TimeNs d) -> Program { co_await kernel::Compute{d}; }(
        per_task);
    m.launch(t);
  }
  cluster.run();
  // 2 CPUs serve ntasks * 200ms of demand: wall >= demand/2 and less than
  // demand (some parallelism must be realised for ntasks >= 2).
  const double wall = static_cast<double>(cluster.now());
  const double demand = static_cast<double>(ntasks) * per_task;
  EXPECT_GE(wall * 2.0, demand * 0.999);
  if (ntasks >= 2) {
    EXPECT_LT(wall, demand);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ComputeConservation,
                         ::testing::Values(1, 2, 3, 5, 8));

// ---------------------------------------------------------------------------
// Trace buffer property: never lose unread records silently
// ---------------------------------------------------------------------------

class TraceBufferProps : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TraceBufferProps, PushedEqualsDrainedPlusDropped) {
  const std::size_t capacity = GetParam();
  meas::TraceBuffer buf(capacity);
  sim::Rng rng(capacity);
  std::uint64_t pushed = 0, drained = 0, dropped = 0, cursor = 0;
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t n = rng.next_below(2 * capacity + 5);
    for (std::uint64_t i = 0; i < n; ++i) {
      buf.push({pushed, 0, meas::TraceType::Entry, 0});
      ++pushed;
    }
    std::vector<meas::TraceRecord> out;
    const meas::TraceDrain d = buf.read_from(cursor, out);
    cursor = d.next_seq;
    dropped += d.loss.dropped;
    drained += out.size();
    // Records come out in timestamp order.
    for (std::size_t i = 1; i < out.size(); ++i) {
      EXPECT_LT(out[i - 1].timestamp, out[i].timestamp);
    }
  }
  EXPECT_EQ(pushed, drained + dropped);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TraceBufferProps,
                         ::testing::Values(1, 2, 7, 64, 1024));

// ---------------------------------------------------------------------------
// Snapshot codec: random profiles round-trip bit-exactly
// ---------------------------------------------------------------------------

class CodecProps : public ::testing::TestWithParam<int> {};

TEST_P(CodecProps, BinaryAndAsciiRoundTrip) {
  const int seed = GetParam();
  sim::Rng rng(static_cast<std::uint64_t>(seed));

  meas::EventRegistry registry;
  std::vector<meas::EventId> ids;
  const int nevents = 3 + static_cast<int>(rng.next_below(20));
  for (int i = 0; i < nevents; ++i) {
    ids.push_back(registry.map("event_" + std::to_string(i),
                               static_cast<meas::Group>(
                                   1u << rng.next_below(8))));
  }

  std::vector<meas::TaskProfile> profiles(1 + rng.next_below(5));
  std::vector<meas::TaskSnapshotInput> inputs;
  std::vector<std::string> names;
  names.reserve(profiles.size());
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    sim::Cycles now = rng.next_below(1000);
    for (int op = 0; op < 40; ++op) {
      const auto ev = ids[rng.next_below(ids.size())];
      profiles[p].entry(ev, now);
      now += rng.next_below(5000) + 1;
      profiles[p].exit(ev, now);
      if (rng.bernoulli(0.3)) {
        profiles[p].atomic(ids[rng.next_below(ids.size())],
                           static_cast<double>(rng.next_below(100000)));
      }
    }
    names.push_back("task_" + std::to_string(p));
  }
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    inputs.push_back({static_cast<meas::Pid>(100 + p), &names[p],
                      &profiles[p]});
  }

  const auto bytes = meas::encode_profile_delta(
      registry, 123456789, 450'000'000, inputs, meas::ProfileCursor{}, 1);
  const auto snap = meas::decode_profile(bytes);
  const auto text = user::profile_to_ascii(snap);
  const auto back = user::profile_from_ascii(text);

  ASSERT_EQ(back.tasks.size(), profiles.size());
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const auto& task = back.tasks[p];
    EXPECT_EQ(task.name, names[p]);
    for (const auto& ev : task.events) {
      const auto& m = profiles[p].metrics(ev.id);
      EXPECT_EQ(ev.count, m.count);
      EXPECT_EQ(ev.incl, m.incl);
      EXPECT_EQ(ev.excl, m.excl);
    }
    for (const auto& at : task.atomics) {
      const auto& am = profiles[p].atomics().at(at.id);
      EXPECT_EQ(at.count, am.count);
      EXPECT_DOUBLE_EQ(at.sum, am.sum);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CodecProps, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Network property: bytes are conserved end to end for any message mix
// ---------------------------------------------------------------------------

class NetConservation : public ::testing::TestWithParam<int> {};

TEST_P(NetConservation, EveryByteSentIsReceived) {
  const int seed = GetParam();
  Cluster cluster;
  MachineConfig cfg;
  cfg.cpus = 2;
  cfg.seed = static_cast<std::uint64_t>(seed);
  Machine& a = cluster.add_machine(cfg);
  Machine& b = cluster.add_machine(cfg);
  knet::Fabric fabric(cluster);
  const auto conn = fabric.connect(0, 1);

  sim::Rng rng(static_cast<std::uint64_t>(seed) * 13 + 1);
  std::vector<std::uint64_t> sizes;
  std::uint64_t total = 0;
  for (int i = 0; i < 30; ++i) {
    sizes.push_back(1 + rng.next_below(20'000));
    total += sizes.back();
  }

  Task& tx = a.spawn("tx");
  tx.program = [](std::vector<std::uint64_t> msgs, int fd) -> Program {
    for (const auto bytes : msgs) co_await kernel::SendMsg{fd, bytes};
  }(sizes, conn.fd_a);
  Task& rx = b.spawn("rx");
  rx.program = [](std::vector<std::uint64_t> msgs, int fd) -> Program {
    for (const auto bytes : msgs) co_await kernel::RecvMsg{fd, bytes};
  }(sizes, conn.fd_b);
  a.launch(tx);
  b.launch(rx);
  cluster.run();

  EXPECT_TRUE(rx.exited);
  const auto& sock = fabric.stack(1).socket(conn.fd_b);
  EXPECT_EQ(sock.bytes_received, total);
  EXPECT_EQ(sock.rx_available, 0u);  // fully consumed
  EXPECT_EQ(fabric.stack(0).socket(conn.fd_a).bytes_sent, total);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NetConservation, ::testing::Range(0, 6));

}  // namespace
}  // namespace ktau
