// Tests for call-path profiling (paper §6 future work) and the TAU
// profile-format export (the TAU compatibility of paper §3).
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/render.hpp"
#include "analysis/views.hpp"
#include "kernel/cluster.hpp"
#include "libktau/libktau.hpp"
#include "tau/export.hpp"

namespace ktau {
namespace {

using kernel::Cluster;
using kernel::Machine;
using kernel::MachineConfig;
using kernel::Program;
using kernel::Task;
using sim::kMillisecond;

MachineConfig callpath_config() {
  MachineConfig cfg;
  cfg.cpus = 1;
  cfg.ktau.charge_overhead = false;
  cfg.ktau.callpath = true;
  return cfg;
}

TEST(Callpath, EdgesRecordParentChildRelations) {
  meas::TaskProfile prof;
  prof.enable_callpath(true);
  // a { b { } b { } } a { }
  prof.entry(1, 0);
  prof.entry(2, 10);
  prof.exit(2, 20);
  prof.entry(2, 25);
  prof.exit(2, 40);
  prof.exit(1, 50);
  prof.entry(1, 60);
  prof.exit(1, 70);

  const auto& edges = prof.edges();
  ASSERT_EQ(edges.size(), 2u);
  const auto& root_a = edges.at(meas::bridge_key(meas::kCallpathRoot, 1));
  EXPECT_EQ(root_a.count, 2u);
  EXPECT_EQ(root_a.incl, 60u);  // 50 + 10
  const auto& a_b = edges.at(meas::bridge_key(1, 2));
  EXPECT_EQ(a_b.count, 2u);
  EXPECT_EQ(a_b.incl, 25u);  // 10 + 15
}

TEST(Callpath, DisabledRecordsNoEdges) {
  meas::TaskProfile prof;
  prof.entry(1, 0);
  prof.entry(2, 5);
  prof.exit(2, 8);
  prof.exit(1, 10);
  EXPECT_TRUE(prof.edges().empty());
}

TEST(Callpath, KernelRunProducesSyscallUnderScheduleEdges) {
  Cluster cluster;
  Machine& m = cluster.add_machine(callpath_config());
  Task& t = m.spawn("worker");
  t.program = [](void) -> Program {
    for (int i = 0; i < 5; ++i) {
      co_await kernel::SleepFor{10 * kMillisecond};
      co_await kernel::NullSyscall{};
    }
  }();
  m.launch(t);
  cluster.run();

  user::KtauHandle handle(m.proc());
  const auto snap = handle.get_profile(meas::Scope::All);
  const auto& task = analysis::task_of(snap, 100);
  ASSERT_FALSE(task.edges.empty());
  // schedule_vol nests under sys_nanosleep.
  const auto sleep_ev = m.ktau().registry().find("sys_nanosleep");
  const auto vol_ev = m.ktau().registry().find("schedule_vol");
  bool found = false;
  for (const auto& e : task.edges) {
    if (e.parent == sleep_ev && e.child == vol_ev) {
      found = true;
      EXPECT_EQ(e.count, 5u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Callpath, SurvivesBinaryAndAsciiRoundTrip) {
  Cluster cluster;
  Machine& m = cluster.add_machine(callpath_config());
  Task& t = m.spawn("worker");
  t.program = [](void) -> Program {
    co_await kernel::SleepFor{5 * kMillisecond};
  }();
  m.launch(t);
  cluster.run();

  user::KtauHandle handle(m.proc());
  const auto snap = handle.get_profile(meas::Scope::All);
  const auto text = user::profile_to_ascii(snap);
  const auto back = user::profile_from_ascii(text);
  const auto& orig_task = analysis::task_of(snap, 100);
  const auto& back_task = analysis::task_of(back, 100);
  ASSERT_EQ(back_task.edges.size(), orig_task.edges.size());
  EXPECT_FALSE(orig_task.edges.empty());
}

TEST(Callpath, CallgraphViewBuildsIndentedTree) {
  Cluster cluster;
  Machine& m = cluster.add_machine(callpath_config());
  Task& t = m.spawn("worker");
  t.program = [](void) -> Program {
    for (int i = 0; i < 3; ++i) co_await kernel::SleepFor{5 * kMillisecond};
  }();
  m.launch(t);
  cluster.run();

  user::KtauHandle handle(m.proc());
  const auto snap = handle.get_profile(meas::Scope::All);
  const auto graph =
      analysis::callgraph(snap, analysis::task_of(snap, 100));
  ASSERT_FALSE(graph.empty());
  // Depth-0 roots exist and schedule_vol appears at depth 1 under
  // sys_nanosleep.
  bool nested = false;
  for (std::size_t i = 1; i < graph.size(); ++i) {
    if (graph[i].name == "schedule_vol" && graph[i].depth == 1 &&
        graph[i - 1].name == "sys_nanosleep") {
      nested = true;
    }
  }
  EXPECT_TRUE(nested);

  std::ostringstream os;
  analysis::render_callgraph(os, "kernel callgraph", graph);
  EXPECT_NE(os.str().find("sys_nanosleep"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TAU format export
// ---------------------------------------------------------------------------

struct ProfiledRun {
  Cluster cluster;
  Machine* m = nullptr;
  Task* t = nullptr;
  std::unique_ptr<tau::Profiler> prof;

  ProfiledRun() {
    m = &cluster.add_machine(callpath_config());
    t = &m->spawn("app");
    tau::TauConfig tc;
    tc.charge_overhead = false;
    prof = std::make_unique<tau::Profiler>(*m, *t, tc);
    const auto f_main = prof->reg("main");
    const auto f_work = prof->reg("work");
    t->program = [](tau::Profiler& p, tau::FuncId fm,
                    tau::FuncId fw) -> Program {
      p.enter(fm);
      for (int i = 0; i < 4; ++i) {
        p.enter(fw);
        co_await kernel::Compute{10 * kMillisecond};
        co_await kernel::SleepFor{5 * kMillisecond};
        p.exit(fw);
      }
      p.exit(fm);
    }(*prof, f_main, f_work);
    m->launch(*t);
    cluster.run();
  }
};

TEST(TauExport, UserProfileRoundTrips) {
  ProfiledRun run;
  std::ostringstream os;
  tau::write_tau_profile(os, *run.prof, run.m->config().freq);
  const auto file = tau::read_tau_profile(os.str());

  ASSERT_EQ(file.functions.size(), 2u);
  const auto* main_row = &file.functions[0];
  const auto* work_row = &file.functions[1];
  if (main_row->name != "main") std::swap(main_row, work_row);
  EXPECT_EQ(main_row->name, "main");
  EXPECT_EQ(main_row->calls, 1u);
  EXPECT_EQ(work_row->calls, 4u);
  EXPECT_EQ(main_row->group, "TAU_DEFAULT");
  // main's inclusive covers work's inclusive.
  EXPECT_GE(main_row->incl_us, work_row->incl_us);
  // work: 4 x (10ms compute + 5ms sleep) ~ 60000 us inclusive.
  EXPECT_NEAR(work_row->incl_us, 60'000, 2'000);
}

TEST(TauExport, KernelProfileContainsGroupsAndUserEvents) {
  ProfiledRun run;
  user::KtauHandle handle(run.m->proc());
  const auto snap = handle.get_profile(meas::Scope::All);
  std::ostringstream os;
  tau::write_kernel_profile(os, snap,
                            analysis::task_of(snap, run.t->pid));
  const std::string text = os.str();
  EXPECT_NE(text.find("\"sys_nanosleep\""), std::string::npos);
  EXPECT_NE(text.find("GROUP=\"KTAU_SYSCALL\""), std::string::npos);
  EXPECT_NE(text.find("GROUP=\"KTAU_SCHED\""), std::string::npos);

  const auto file = tau::read_tau_profile(text);
  for (const auto& row : file.functions) {
    EXPECT_GE(row.incl_us, row.excl_us);
    EXPECT_GT(row.calls, 0u);
  }
  // Call-path edges supplied the Subrs column: sys_nanosleep has children.
  bool sleep_has_subrs = false;
  for (const auto& row : file.functions) {
    if (row.name == "sys_nanosleep") sleep_has_subrs = row.subrs > 0;
  }
  EXPECT_TRUE(sleep_has_subrs);
}

TEST(TauExport, MergedProfileSubtractsKernelTime) {
  ProfiledRun run;
  user::KtauHandle handle(run.m->proc());
  const auto snap = handle.get_profile(meas::Scope::All);
  std::ostringstream os;
  tau::write_merged_profile(os, snap, analysis::task_of(snap, run.t->pid),
                            *run.prof);
  const auto file = tau::read_tau_profile(os.str());

  double work_excl = -1;
  bool has_kernel_rows = false;
  for (const auto& row : file.functions) {
    if (row.name == "work") work_excl = row.excl_us;
    has_kernel_rows |= row.group.rfind("KTAU_", 0) == 0;
  }
  ASSERT_GE(work_excl, 0.0);
  EXPECT_TRUE(has_kernel_rows);
  // "work" raw exclusive is ~60 ms, of which ~20 ms is kernel (sleep
  // syscalls + waits): true exclusive ~40 ms.
  EXPECT_NEAR(work_excl, 40'000, 3'000);
}

TEST(PhaseProfiling, BreaksRoutineMetricsDownByPhase) {
  Cluster cluster;
  Machine& m = cluster.add_machine(callpath_config());
  Task& t = m.spawn("app");
  tau::TauConfig tc;
  tc.charge_overhead = false;
  tau::Profiler prof(m, t, tc);
  const auto p_init = prof.reg_phase("init_phase");
  const auto p_iter = prof.reg_phase("iterate_phase");
  const auto f_work = prof.reg("work");
  EXPECT_TRUE(prof.is_phase(p_init));
  EXPECT_FALSE(prof.is_phase(f_work));

  t.program = [](tau::Profiler& p, tau::FuncId pi, tau::FuncId pt,
                 tau::FuncId fw) -> Program {
    p.enter(pi);
    p.enter(fw);
    co_await kernel::Compute{10 * kMillisecond};
    p.exit(fw);
    p.exit(pi);
    p.enter(pt);
    for (int i = 0; i < 3; ++i) {
      p.enter(fw);
      co_await kernel::Compute{20 * kMillisecond};
      p.exit(fw);
    }
    p.exit(pt);
  }(prof, p_init, p_iter, f_work);
  m.launch(t);
  cluster.run();

  const auto freq = static_cast<double>(m.config().freq);
  const auto& in_init = prof.phase_metrics(p_init, f_work);
  const auto& in_iter = prof.phase_metrics(p_iter, f_work);
  EXPECT_EQ(in_init.count, 1u);
  EXPECT_EQ(in_iter.count, 3u);
  EXPECT_NEAR(static_cast<double>(in_init.incl) / freq, 0.010, 0.001);
  EXPECT_NEAR(static_cast<double>(in_iter.incl) / freq, 0.060, 0.002);
  // Flat profile still aggregates everything.
  EXPECT_EQ(prof.metrics(f_work).count, 4u);
  // The phases themselves land under the no-phase context.
  EXPECT_EQ(prof.phase_metrics(tau::Profiler::kNoPhase, p_init).count, 1u);
  EXPECT_EQ(prof.phase_metrics(tau::Profiler::kNoPhase, p_iter).count, 1u);
  // Unseen combination is zeroed.
  EXPECT_EQ(prof.phase_metrics(p_init, p_iter).count, 0u);
}

TEST(PhaseProfiling, NestedPhasesChargeInnermost) {
  Cluster cluster;
  Machine& m = cluster.add_machine(callpath_config());
  Task& t = m.spawn("app");
  tau::TauConfig tc;
  tc.charge_overhead = false;
  tau::Profiler prof(m, t, tc);
  const auto p_outer = prof.reg_phase("outer");
  const auto p_inner = prof.reg_phase("inner");
  const auto f_work = prof.reg("work");
  t.program = [](tau::Profiler& p, tau::FuncId po, tau::FuncId pi,
                 tau::FuncId fw) -> Program {
    p.enter(po);
    p.enter(pi);
    p.enter(fw);
    co_await kernel::Compute{5 * kMillisecond};
    p.exit(fw);
    p.exit(pi);
    p.exit(po);
  }(prof, p_outer, p_inner, f_work);
  m.launch(t);
  cluster.run();

  EXPECT_EQ(prof.phase_metrics(p_inner, f_work).count, 1u);
  EXPECT_EQ(prof.phase_metrics(p_outer, f_work).count, 0u);
  // The inner phase itself is charged to the outer phase.
  EXPECT_EQ(prof.phase_metrics(p_outer, p_inner).count, 1u);
}

TEST(Callpath, CorruptedEdgeSectionsRejectedNotCrashing) {
  // A callpath-enabled profile exercises the bridge/edge sections of the
  // binary codec; truncating or count-bombing those must yield a typed
  // SnapshotError, never a crash or a multi-gigabyte reserve.
  Cluster cluster;
  Machine& m = cluster.add_machine(callpath_config());
  Task& t = m.spawn("worker");
  t.program = [](void) -> Program {
    for (int i = 0; i < 5; ++i) {
      co_await kernel::SleepFor{10 * kMillisecond};
      co_await kernel::NullSyscall{};
    }
  }();
  m.launch(t);
  cluster.run();

  const std::size_t size =
      m.proc().profile_size(meas::Scope::All, {}, meas::ProfileCursor{});
  std::vector<std::byte> full;
  ASSERT_TRUE(m.proc().profile_read(meas::Scope::All, {},
                                    meas::ProfileCursor{}, size, full));
  const auto snap = meas::decode_profile(full);
  ASSERT_FALSE(analysis::task_of(snap, 100).edges.empty());

  for (std::size_t n = 0; n < full.size(); ++n) {
    std::vector<std::byte> cut(full.begin(), full.begin() + n);
    EXPECT_THROW(meas::decode_profile(cut), meas::SnapshotError) << n;
  }
  for (std::size_t off = 0; off + 4 <= full.size(); ++off) {
    auto bomb = full;
    for (std::size_t i = 0; i < 4; ++i) bomb[off + i] = std::byte{0xFF};
    try {
      meas::decode_profile(bomb);
    } catch (const meas::SnapshotError&) {
    }
  }
}

TEST(TauExport, ReaderRejectsGarbage) {
  EXPECT_THROW(tau::read_tau_profile(""), std::runtime_error);
  EXPECT_THROW(tau::read_tau_profile("nonsense"), std::runtime_error);
  EXPECT_THROW(
      tau::read_tau_profile("2 templated_functions_MULTI_TIME\n# c\n\"a\" 1"),
      std::runtime_error);
}

}  // namespace
}  // namespace ktau
