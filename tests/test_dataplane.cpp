// Tests for the unified measurement data plane: the interned name table,
// per-row dirty epochs, the cursor-carrying delta protocol, client-side
// snapshot reassembly (ProfileAccumulator), and delta extraction through
// the daemons.
#include <gtest/gtest.h>

#include "analysis/views.hpp"
#include "clients/ktaud.hpp"
#include "kernel/cluster.hpp"
#include "libktau/libktau.hpp"

namespace ktau {
namespace {

using kernel::Cluster;
using kernel::Compute;
using kernel::Machine;
using kernel::MachineConfig;
using kernel::Program;
using kernel::Task;
using sim::kMillisecond;
using user::KtauHandle;

MachineConfig quiet(std::uint32_t cpus = 1) {
  MachineConfig cfg;
  cfg.cpus = cpus;
  cfg.ktau.charge_overhead = false;
  return cfg;
}

Program busy_loop(int n) {
  for (int i = 0; i < n; ++i) {
    co_await Compute{5 * kMillisecond};
    co_await kernel::NullSyscall{};
  }
}

/// Compares cumulative totals of two snapshots task-by-task (matched by
/// pid), row-by-row (matched by id), ignoring row and task order — the
/// invariant a reassembled delta stream must satisfy against a full read.
void expect_same_totals(const meas::ProfileSnapshot& a,
                        const meas::ProfileSnapshot& b) {
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (const auto& ta : a.tasks) {
    const meas::TaskProfileData* tb = nullptr;
    for (const auto& cand : b.tasks) {
      if (cand.pid == ta.pid) tb = &cand;
    }
    ASSERT_NE(tb, nullptr) << "pid " << ta.pid << " missing";
    EXPECT_EQ(ta.name, tb->name);
    ASSERT_EQ(ta.events.size(), tb->events.size()) << ta.name;
    for (const auto& ev : ta.events) {
      const meas::EventEntry* match = nullptr;
      for (const auto& cand : tb->events) {
        if (cand.id == ev.id) match = &cand;
      }
      ASSERT_NE(match, nullptr) << ta.name << " event " << ev.id;
      EXPECT_EQ(ev, *match) << ta.name << " event " << ev.id;
    }
    ASSERT_EQ(ta.bridge.size(), tb->bridge.size()) << ta.name;
    ASSERT_EQ(ta.atomics.size(), tb->atomics.size()) << ta.name;
  }
}

TEST(NameTable, InternAppendsAndBumpsGeneration) {
  meas::NameTable names;
  EXPECT_EQ(names.size(), 0u);
  EXPECT_EQ(names.generation(), 0u);
  const auto a = names.intern("schedule", meas::Group::Sched);
  const auto b = names.intern("tcp_v4_rcv", meas::Group::Net);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(names.size(), 2u);
  EXPECT_EQ(names.generation(), 2u);
  EXPECT_EQ(names.info(a).name, "schedule");
  EXPECT_EQ(names.info(b).group, meas::Group::Net);
  EXPECT_THROW(names.info(2), std::out_of_range);
}

TEST(NameTable, RegistryExposesInternedStore) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet());
  Task& t = m.spawn("app");
  t.program = busy_loop(5);
  m.launch(t);
  cluster.run();

  const auto& reg = m.ktau().registry();
  EXPECT_GT(reg.size(), 0u);
  EXPECT_EQ(reg.names().size(), reg.size());
  EXPECT_EQ(reg.names().generation(), reg.size());  // append-only, no churn
  const auto ev = reg.find("sys_getpid");
  EXPECT_EQ(reg.names().info(ev).name, "sys_getpid");
}

TEST(DirtyEpochs, RowsAreStampedWithCurrentExtractionEpoch) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet());
  Task& t = m.spawn("app");
  t.program = busy_loop(10);
  m.launch(t);
  cluster.run_until(10 * kMillisecond);

  EXPECT_EQ(m.ktau().extraction_epoch(), 1u);
  EXPECT_EQ(t.prof.dirty_epoch(), 1u);

  // A successful cursor read advances the epoch; later activity stamps the
  // new epoch so the next delta picks it up.
  KtauHandle handle(m.proc());
  handle.get_profile_delta(meas::Scope::All);
  EXPECT_EQ(m.ktau().extraction_epoch(), 2u);
  EXPECT_EQ(t.prof.dirty_epoch(), 1u);  // nothing ran since the read
  cluster.run_until(20 * kMillisecond);
  EXPECT_EQ(t.prof.dirty_epoch(), 2u);
}

TEST(DirtyEpochs, DeltaReadSkipsTasksUntouchedSinceCursor) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet(2));
  Task& done = m.spawn("shortlived");
  done.program = busy_loop(2);
  Task& busy = m.spawn("longrunner");
  busy.program = busy_loop(40);
  m.launch(done);
  m.launch(busy);
  cluster.run_until(50 * kMillisecond);  // shortlived has exited

  KtauHandle handle(m.proc());
  const auto& first = handle.get_profile_delta(meas::Scope::All);
  bool first_has_done = false;
  for (const auto& task : first.tasks) {
    if (task.name == "shortlived") first_has_done = true;
  }
  EXPECT_TRUE(first_has_done);  // first read with a zero cursor is full

  cluster.run_until(100 * kMillisecond);
  const std::size_t dsize = m.proc().profile_size(
      meas::Scope::All, {}, handle.profile_cache().cursor());
  std::vector<std::byte> buf;
  ASSERT_TRUE(m.proc().profile_read(meas::Scope::All, {},
                                    handle.profile_cache().cursor(), dsize,
                                    buf));
  const auto second = meas::decode_profile(buf);
  EXPECT_GT(second.base_epoch, 0u);
  EXPECT_EQ(second.events.size(), 0u);  // no new names since the full read
  bool second_has_done = false, second_has_busy = false;
  for (const auto& task : second.tasks) {
    if (task.name == "shortlived") second_has_done = true;
    if (task.name == "longrunner") second_has_busy = true;
  }
  EXPECT_FALSE(second_has_done);  // exited before the cursor: clean
  EXPECT_TRUE(second_has_busy);
}

TEST(Accumulator, DeltaStreamConvergesToFullRead) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet(2));
  Task& t = m.spawn("app");
  t.program = busy_loop(40);
  m.launch(t);

  KtauHandle delta_handle(m.proc());
  for (const sim::TimeNs until :
       {20 * kMillisecond, 60 * kMillisecond, 120 * kMillisecond}) {
    cluster.run_until(until);
    delta_handle.get_profile_delta(meas::Scope::All);
  }
  cluster.run();
  const auto& merged = delta_handle.get_profile_delta(meas::Scope::All);

  KtauHandle full_handle(m.proc());
  const auto full = full_handle.get_profile(meas::Scope::All);
  EXPECT_EQ(merged.events.size(), full.events.size());
  expect_same_totals(full, merged);
}

TEST(Accumulator, OneShotFullReadBetweenDeltaReadsLosesNoRows) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet());
  Task& t = m.spawn("app");
  t.program = busy_loop(10);  // busy until ~50 ms, then exits
  m.launch(t);
  cluster.run_until(20 * kMillisecond);

  KtauHandle handle(m.proc());
  handle.get_profile_delta(meas::Scope::All);
  const meas::ProfileCursor cursor = handle.profile_cache().cursor();
  cluster.run_until(60 * kMillisecond);  // app rows change, then it exits

  // A one-shot full read on the same handle advances the kernel's
  // extraction epoch but leaves the handle's cursor cache alone.
  const std::uint64_t epoch = m.ktau().extraction_epoch();
  const auto mid = handle.get_profile(meas::Scope::All);
  EXPECT_EQ(mid.base_epoch, 0u);
  EXPECT_EQ(m.ktau().extraction_epoch(), epoch + 1);
  EXPECT_EQ(handle.profile_cache().cursor(), cursor);
  auto app_rows = [](const meas::ProfileSnapshot& snap) {
    for (const auto& task : snap.tasks) {
      if (task.name == "app") return task.events;
    }
    return std::vector<meas::EventEntry>{};
  };
  EXPECT_NE(app_rows(mid), app_rows(handle.profile_cache().merged()));

  // The next delta read still ships every row changed since its cursor —
  // the app's rows changed before the full read, and nothing touched them
  // after it — so the reassembly matches a fresh full read.
  cluster.run_until(90 * kMillisecond);
  const auto& merged = handle.get_profile_delta(meas::Scope::All);
  EXPECT_EQ(app_rows(merged), app_rows(mid));
  KtauHandle fresh(m.proc());
  expect_same_totals(fresh.get_profile(meas::Scope::All), merged);
}

TEST(Accumulator, TwoClientsWithIndependentCursorsBothConverge) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet());
  Task& t = m.spawn("app");
  t.program = busy_loop(40);
  m.launch(t);

  KtauHandle a(m.proc());
  KtauHandle b(m.proc());
  cluster.run_until(30 * kMillisecond);
  a.get_profile_delta(meas::Scope::All);
  cluster.run_until(60 * kMillisecond);
  b.get_profile_delta(meas::Scope::All);  // b starts later, cursor is its own
  cluster.run_until(90 * kMillisecond);
  a.get_profile_delta(meas::Scope::All);
  cluster.run();
  const auto& ma = a.get_profile_delta(meas::Scope::All);
  const auto& mb = b.get_profile_delta(meas::Scope::All);

  KtauHandle fresh(m.proc());
  const auto full = fresh.get_profile(meas::Scope::All);
  expect_same_totals(full, ma);
  expect_same_totals(full, mb);
}

TEST(Accumulator, ResetForgetsCursorAndState) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet());
  Task& t = m.spawn("app");
  t.program = busy_loop(10);
  m.launch(t);
  cluster.run_until(20 * kMillisecond);

  KtauHandle handle(m.proc());
  handle.get_profile_delta(meas::Scope::All);
  EXPECT_GT(handle.profile_cache().cursor().epoch, 0u);
  handle.reset_profile_cache();
  EXPECT_EQ(handle.profile_cache().cursor(), meas::ProfileCursor{});
  EXPECT_TRUE(handle.profile_cache().merged().tasks.empty());
}

TEST(KtaudDelta, SameResultsFewerBytesThanFullExtraction) {
  // Two identical clusters, one daemon doing legacy full reads, one doing
  // cursor-carrying delta reads.  With processing cost disabled the runs
  // are otherwise identical, so the archived end states must agree while
  // the delta daemon moves strictly fewer bytes.
  auto run_one = [](bool delta) {
    auto cluster = std::make_unique<Cluster>();
    Machine& m = cluster->add_machine(quiet(2));
    Task& t = m.spawn("app");
    t.program = busy_loop(30);
    m.launch(t);
    clients::KtaudConfig cfg;
    cfg.period = 20 * kMillisecond;
    cfg.until = 200 * kMillisecond;
    cfg.collect_traces = false;
    cfg.process_per_kb = 0;
    cfg.delta = delta;
    auto daemon = std::make_unique<clients::Ktaud>(m, cfg);
    cluster->run_until(200 * kMillisecond);
    return std::pair{std::move(cluster), std::move(daemon)};
  };
  const auto [cluster_full, full] = run_one(false);
  const auto [cluster_delta, delta] = run_one(true);

  ASSERT_GT(full->extractions(), 3u);
  EXPECT_EQ(full->extractions(), delta->extractions());
  EXPECT_LT(delta->total_extract_bytes(), full->total_extract_bytes());
  ASSERT_FALSE(full->profiles().empty());
  ASSERT_FALSE(delta->profiles().empty());
  // The delta daemon archives its reassembled (cumulative) view each
  // period; the final archives must carry the same totals.
  expect_same_totals(full->profiles().back(), delta->profiles().back());
}

}  // namespace
}  // namespace ktau
