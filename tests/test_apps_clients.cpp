// Integration tests: LU / Sweep3D workload models end-to-end on a small
// cluster, the ktaud daemon, runKtau, lmbench micro-workloads, and the
// analysis views over real snapshots.
#include <gtest/gtest.h>

#include "analysis/render.hpp"
#include "analysis/views.hpp"
#include "apps/daemons.hpp"
#include "apps/lmbench.hpp"
#include "apps/lu.hpp"
#include "apps/sweep3d.hpp"
#include "clients/ktaud.hpp"
#include "clients/runktau.hpp"
#include "kernel/cluster.hpp"
#include "libktau/libktau.hpp"

namespace ktau {
namespace {

using kernel::Cluster;
using kernel::Machine;
using kernel::MachineConfig;
using sim::kMillisecond;
using sim::kSecond;

MachineConfig quiet_node(std::uint32_t cpus = 2) {
  MachineConfig cfg;
  cfg.cpus = cpus;
  cfg.ktau.charge_overhead = false;
  cfg.wake_misplace_prob = 0.0;
  cfg.smp_compute_dilation = 0.0;
  return cfg;
}

/// Small LU setup: 4x2 rank grid on 4 dual-CPU nodes, short iterations.
struct SmallLu {
  Cluster cluster;
  std::unique_ptr<knet::Fabric> fabric;
  std::unique_ptr<mpi::World> world;
  std::unique_ptr<apps::LuApp> app;

  explicit SmallLu(apps::LuParams p = small_params(), int nodes = 4,
                   MachineConfig node_cfg = quiet_node()) {
    for (int n = 0; n < nodes; ++n) cluster.add_machine(node_cfg);
    fabric = std::make_unique<knet::Fabric>(cluster);
    std::vector<mpi::RankPlacement> placement;
    for (int r = 0; r < p.px * p.py; ++r) {
      placement.push_back({static_cast<kernel::NodeId>(r % nodes),
                           kernel::cpu_bit(static_cast<kernel::CpuId>(
                               (r / nodes) % node_cfg.cpus))});
    }
    world = std::make_unique<mpi::World>(cluster, *fabric,
                                         std::move(placement), "lu");
    world->recv_spin = 0;  // block immediately: simpler structural asserts
    app = std::make_unique<apps::LuApp>(*world, p);
    app->install_and_launch();
  }

  static apps::LuParams small_params() {
    apps::LuParams p;
    p.iterations = 4;
    p.px = 4;
    p.py = 2;
    p.k_blocks = 4;
    p.rhs_time = 20 * kMillisecond;
    p.stage_time = 2 * kMillisecond;
    p.halo_bytes = 8 * 1024;
    p.pipe_bytes = 2 * 1024;
    p.norm_every = 2;
    p.tau.charge_overhead = false;
    return p;
  }
};

TEST(LuApp, CompletesAndAllRanksExit) {
  SmallLu env;
  env.cluster.run();
  for (int r = 0; r < env.world->size(); ++r) {
    EXPECT_TRUE(env.world->task(r).exited) << "rank " << r;
  }
  EXPECT_GT(env.world->job_completion(), 0u);
}

TEST(LuApp, DeterministicAcrossRuns) {
  SmallLu a, b;
  a.cluster.run();
  b.cluster.run();
  EXPECT_EQ(a.world->job_completion(), b.world->job_completion());
  for (int r = 0; r < a.world->size(); ++r) {
    EXPECT_EQ(a.world->rank_exec_time(r), b.world->rank_exec_time(r));
  }
}

TEST(LuApp, TauProfilesHaveExpectedStructure) {
  SmallLu env;
  env.cluster.run();
  auto& tau = env.app->profiler(0);
  const auto f_main = tau.find("main");
  const auto f_ssor = tau.find("ssor");
  const auto f_rhs = tau.find("rhs");
  const auto f_recv = tau.find("MPI_Recv");
  EXPECT_EQ(tau.metrics(f_main).count, 1u);
  EXPECT_EQ(tau.metrics(f_ssor).count, 4u);
  EXPECT_EQ(tau.metrics(f_rhs).count, 4u);
  EXPECT_GT(tau.metrics(f_recv).count, 0u);
  // Inclusive nesting: main >= ssor >= rhs.
  EXPECT_GE(tau.metrics(f_main).incl, tau.metrics(f_ssor).incl);
  EXPECT_GE(tau.metrics(f_ssor).incl, tau.metrics(f_rhs).incl);
  EXPECT_EQ(tau.stack_depth(), 0u);
}

TEST(LuApp, CornerRankWaitsLessInBltsThanFarCorner) {
  // Pipeline sanity: rank 0 (north-west corner) starts the lower sweep
  // immediately; the south-east corner waits for the whole wavefront, so
  // its MPI_Recv time must be larger.
  SmallLu env;
  env.cluster.run();
  const auto recv0 = env.app->profiler(0).metrics(
      env.app->profiler(0).find("MPI_Recv"));
  const int last = env.world->size() - 1;
  const auto recvN = env.app->profiler(last).metrics(
      env.app->profiler(last).find("MPI_Recv"));
  EXPECT_GT(recvN.incl, recv0.incl);
}

TEST(LuApp, KernelProfilesShowMpiRecvKernelGroups) {
  // Figure 4's structure: inside MPI_Recv, the kernel profile shows
  // syscall and scheduling activity via the bridge.
  SmallLu env;
  env.cluster.run();
  Machine& m = env.world->machine_of(5);
  user::KtauHandle handle(m.proc());
  const auto snap = handle.get_profile(meas::Scope::All);
  const auto& task = analysis::task_of(snap, env.world->task(5).pid);
  const auto user_ev = env.app->profiler(5).ktau_event(
      env.app->profiler(5).find("MPI_Recv"));
  const auto groups = analysis::groups_within_user(snap, task, user_ev);
  EXPECT_GT(groups.count(meas::Group::Syscall), 0u);
  EXPECT_GT(groups.count(meas::Group::Sched), 0u);
}

TEST(LuApp, MergedProfileReducesUserExclusiveTime) {
  SmallLu env;
  env.cluster.run();
  Machine& m = env.world->machine_of(0);
  user::KtauHandle handle(m.proc());
  const auto snap = handle.get_profile(meas::Scope::All);
  const auto& task = analysis::task_of(snap, env.world->task(0).pid);
  const auto merged =
      analysis::merged_profile(snap, task, env.app->profiler(0));
  ASSERT_FALSE(merged.empty());
  bool kernel_rows = false;
  for (const auto& row : merged) {
    EXPECT_LE(row.true_excl_sec, row.raw_excl_sec + 1e-12) << row.name;
    kernel_rows |= row.is_kernel;
  }
  EXPECT_TRUE(kernel_rows);
  // MPI_Recv's raw time is dominated by kernel time (waiting): its true
  // exclusive must shrink dramatically.
  for (const auto& row : merged) {
    if (row.name == "MPI_Recv" && !row.is_kernel) {
      EXPECT_LT(row.true_excl_sec, row.raw_excl_sec * 0.5);
    }
  }
}

TEST(SweepApp, CompletesWithWavefrontStructure) {
  Cluster cluster;
  for (int n = 0; n < 4; ++n) cluster.add_machine(quiet_node());
  knet::Fabric fabric(cluster);
  apps::SweepParams p;
  p.iterations = 2;
  p.px = 4;
  p.py = 2;
  p.k_blocks = 2;
  p.source_time = 10 * kMillisecond;
  p.block_time = 2 * kMillisecond;
  p.flux_time = 2 * kMillisecond;
  p.face_bytes = 4 * 1024;
  p.tau.charge_overhead = false;
  std::vector<mpi::RankPlacement> placement;
  for (int r = 0; r < 8; ++r) {
    placement.push_back({static_cast<kernel::NodeId>(r % 4),
                         kernel::cpu_bit(static_cast<kernel::CpuId>(r / 4))});
  }
  mpi::World world(cluster, fabric, std::move(placement), "sweep3d");
  apps::SweepApp app(world, p);
  world.launch_all();
  cluster.run();

  for (int r = 0; r < 8; ++r) EXPECT_TRUE(world.task(r).exited);
  auto& tau = app.profiler(3);
  EXPECT_EQ(tau.metrics(tau.find("sweep")).count, 2u);
  // 2 iters x 8 octants x 2 blocks compute phases.
  EXPECT_EQ(tau.metrics(tau.find("sweep_compute")).count, 32u);
}

TEST(Daemons, HogAlternatesSleepAndBusy) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_node(1));
  apps::HogParams p;
  p.sleep = 100 * kMillisecond;
  p.busy = 50 * kMillisecond;
  p.until = 1 * kSecond;
  kernel::Task& hog = apps::spawn_hog(m, p);
  cluster.run();
  EXPECT_TRUE(hog.exited);
  // ~6-7 cycles of (100 sleep + 50 busy) before passing 1 s.
  EXPECT_GE(hog.end_time, 1 * kSecond);
  EXPECT_LT(hog.end_time, static_cast<sim::TimeNs>(1.3 * kSecond));
}

TEST(Daemons, MixStaysLightweight) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_node(1));
  apps::spawn_daemon_mix(m, 10 * kSecond);
  cluster.run();
  // Figure 7's observation: daemons account for tiny execution time.
  // Exclude Sched events — schedule_vol's time IS the blocked/sleep time.
  double total_excl = 0;
  const auto& reg = m.ktau().registry();
  for (const auto& r : m.ktau().reaped()) {
    const auto& metrics = r.profile.all_metrics();
    for (meas::EventId ev = 0; ev < metrics.size(); ++ev) {
      if (reg.info(ev).group == meas::Group::Sched) continue;
      total_excl += static_cast<double>(metrics[ev].excl);
    }
  }
  const double sec = total_excl / static_cast<double>(m.config().freq);
  EXPECT_LT(sec, 0.5);  // a few hundred ms at most over 10 s
}

TEST(Ktaud, PeriodicallyExtractsTraces) {
  Cluster cluster;
  auto cfg = quiet_node(2);
  cfg.ktau.tracing = true;
  cfg.ktau.trace_capacity = 1 << 12;
  Machine& m = cluster.add_machine(cfg);
  kernel::Task& worker = m.spawn("worker");
  worker.program = [](void) -> kernel::Program {
    for (int i = 0; i < 100; ++i) {
      co_await kernel::Compute{20 * kMillisecond};
      co_await kernel::NullSyscall{};
    }
  }();
  m.launch(worker);
  clients::KtaudConfig kcfg;
  kcfg.period = 200 * kMillisecond;
  kcfg.until = 2 * kSecond;
  clients::Ktaud ktaud(m, kcfg);
  cluster.run();

  EXPECT_GE(ktaud.extractions(), 8u);
  EXPECT_GT(ktaud.total_records(), 0u);
  EXPECT_GT(ktaud.profiles().size(), 0u);
  // ktaud sees the worker in its profile snapshots.
  bool saw_worker = false;
  for (const auto& snap : ktaud.profiles()) {
    for (const auto& t : snap.tasks) saw_worker |= t.name == "worker";
  }
  EXPECT_TRUE(saw_worker);
}

TEST(Ktaud, SmallBuffersWithSlowDaemonLoseRecords) {
  // The lossy-trace design (paper §4.2): if ktaud reads too slowly for the
  // buffer size, records drop.
  auto run_case = [](std::size_t capacity) {
    Cluster cluster;
    auto cfg = quiet_node(2);
    cfg.ktau.tracing = true;
    cfg.ktau.trace_capacity = capacity;
    Machine& m = cluster.add_machine(cfg);
    kernel::Task& worker = m.spawn("worker");
    // Long-running worker that stays alive across extractions, producing
    // bursts of trace records between ktaud visits.
    worker.program = [](void) -> kernel::Program {
      for (int burst = 0; burst < 40; ++burst) {
        for (int i = 0; i < 200; ++i) co_await kernel::NullSyscall{};
        co_await kernel::SleepFor{50 * kMillisecond};
      }
    }();
    m.launch(worker);
    clients::KtaudConfig kcfg;
    kcfg.period = 500 * kMillisecond;
    kcfg.until = 1 * kSecond;
    clients::Ktaud ktaud(m, kcfg);
    cluster.run();
    return ktaud.total_dropped();
  };
  EXPECT_GT(run_case(64), 0u);        // tiny buffer: loss
  EXPECT_EQ(run_case(1 << 16), 0u);   // ample buffer: no loss
}

TEST(RunKtau, CapturesChildProfileAfterExit) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_node(2));
  kernel::Task& child = m.spawn("child-job");
  child.program = [](void) -> kernel::Program {
    for (int i = 0; i < 10; ++i) {
      co_await kernel::Compute{10 * kMillisecond};
      co_await kernel::NullSyscall{};
    }
  }();
  clients::RunKtau wrapper(m, child);
  cluster.run();

  ASSERT_TRUE(wrapper.completed());
  const auto& snap = wrapper.result();
  ASSERT_EQ(snap.tasks.size(), 1u);
  EXPECT_EQ(snap.tasks[0].name, "child-job");
  const auto metrics =
      analysis::named_metrics(snap, snap.tasks[0], "sys_getpid");
  EXPECT_EQ(metrics.count, 10u);
  EXPECT_GE(wrapper.child_elapsed(), 100 * kMillisecond);
}

TEST(Lmbench, NullSyscallLatencyIsMicroseconds) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_node(1));
  const auto res = apps::lat_syscall_null(cluster, m, 1000);
  EXPECT_EQ(res.calls, 1000u);
  // syscall_entry+null+exit ~ 620 cycles at 450 MHz ~ 1.4 us.
  EXPECT_GT(res.per_call_us, 0.5);
  EXPECT_LT(res.per_call_us, 5.0);
}

TEST(Lmbench, CtxSwitchHandoffCostsMicroseconds) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_node(2));
  knet::Fabric fabric(cluster);
  const auto res = apps::lat_ctx(cluster, m, fabric, 200);
  EXPECT_GT(res.handoff_us, 5.0);
  EXPECT_LT(res.handoff_us, 200.0);
}

TEST(Lmbench, TcpBandwidthApproachesLinkRate) {
  Cluster cluster;
  cluster.add_machine(quiet_node(2));
  cluster.add_machine(quiet_node(2));
  knet::NetConfig net;
  net.latency_jitter_mean = 0;
  knet::Fabric fabric(cluster, net);
  const auto res = apps::bw_tcp(cluster, fabric, 0, 1, 20'000'000);
  // 100 Mb/s link = 12.5 MB/s; expect to get most of it.
  EXPECT_GT(res.mbytes_per_sec, 9.0);
  EXPECT_LE(res.mbytes_per_sec, 12.6);
}

TEST(AnalysisViews, AggregateAndPerTaskViewsAreConsistent) {
  SmallLu env;
  env.cluster.run();
  Machine& m = env.cluster.machine(0);
  user::KtauHandle handle(m.proc());
  const auto snap = handle.get_profile(meas::Scope::All);

  const auto agg = analysis::aggregate_events(snap);
  ASSERT_FALSE(agg.empty());
  double agg_total = 0;
  for (const auto& row : agg) agg_total += row.excl_sec;

  // The same exclusive time, summed task by task off the snapshot rows.
  double task_total = 0;
  for (const auto& task : snap.tasks) {
    for (const auto& ev : task.events) {
      task_total += static_cast<double>(ev.excl) /
                    static_cast<double>(snap.cpu_freq);
    }
  }

  EXPECT_NEAR(agg_total, task_total, 1e-9);
  // Sorted descending.
  for (std::size_t i = 1; i < agg.size(); ++i) {
    EXPECT_GE(agg[i - 1].incl_sec, agg[i].incl_sec);
  }
}

TEST(AnalysisRender, ProducesPlausibleText) {
  std::ostringstream os;
  analysis::render_bars(os, "test bars", {{"a", 1.0}, {"bb", 2.0}}, "s");
  analysis::render_paired_bars(os, "pairs", {{"x", 1.0, 0.5}}, "merged",
                               "user-only");
  sim::Histogram h(0, 10, 5);
  h.add(1);
  h.add(2);
  h.add(7);
  analysis::render_histogram(os, "hist", h, "seconds");
  std::map<std::string, sim::Cdf> series;
  series["128x1"] = sim::Cdf({1, 2, 3, 4, 5});
  series["64x2"] = sim::Cdf({2, 4, 6, 8, 10});
  analysis::render_cdfs(os, "cdfs", "seconds", series);
  const std::string out = os.str();
  EXPECT_NE(out.find("test bars"), std::string::npos);
  EXPECT_NE(out.find("128x1"), std::string::npos);
  EXPECT_NE(out.find("p50"), std::string::npos);
  EXPECT_NE(out.find("#"), std::string::npos);
}

TEST(AnalysisRender, TimelineMergesUserAndKernelEvents) {
  Cluster cluster;
  auto cfg = quiet_node(1);
  cfg.ktau.tracing = true;
  cfg.ktau.trace_capacity = 1 << 14;
  Machine& m = cluster.add_machine(cfg);
  kernel::Task& t = m.spawn("traced");
  tau::TauConfig tcfg;
  tcfg.charge_overhead = false;
  tcfg.tracing = true;
  tau::Profiler tau(m, t, tcfg);
  const auto f = tau.reg("work");
  t.program = [](tau::Profiler& p, tau::FuncId fw) -> kernel::Program {
    p.enter(fw);
    co_await kernel::NullSyscall{};
    co_await kernel::Compute{5 * kMillisecond};
    p.exit(fw);
  }(tau, f);
  const meas::Pid pid = t.pid;
  m.launch(t);
  cluster.run_until(4 * kMillisecond);  // before exit, buffers still live

  user::KtauHandle handle(m.proc());
  const auto ktrace = handle.get_trace_incremental(meas::Scope::All);
  const auto events = analysis::merge_timeline(ktrace, pid, tau);
  ASSERT_GT(events.size(), 2u);
  bool has_user = false, has_kernel = false;
  for (const auto& e : events) {
    has_user |= !e.is_kernel;
    has_kernel |= e.is_kernel;
  }
  EXPECT_TRUE(has_user);
  EXPECT_TRUE(has_kernel);
  std::ostringstream os;
  analysis::render_timeline(os, "timeline", events);
  EXPECT_NE(os.str().find("[K] sys_getpid"), std::string::npos);
  EXPECT_NE(os.str().find("[U] work"), std::string::npos);
}

}  // namespace
}  // namespace ktau
