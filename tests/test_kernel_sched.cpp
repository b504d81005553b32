// Scheduler / task-lifecycle tests for the simulated kernel, including the
// KTAU voluntary/involuntary scheduling instrumentation semantics the
// paper's experiments depend on (§5.1, Figure 2-C).
#include <gtest/gtest.h>

#include "kernel/cluster.hpp"
#include "kernel/machine.hpp"
#include "kernel/program.hpp"

namespace ktau::kernel {
namespace {

using sim::kMillisecond;
using sim::kSecond;

MachineConfig quiet_config(std::uint32_t cpus) {
  MachineConfig cfg;
  cfg.cpus = cpus;
  // Most tests assert exact-ish timing; do not perturb it with measurement
  // overhead (dedicated perturbation tests re-enable it).
  cfg.ktau.charge_overhead = false;
  cfg.wake_misplace_prob = 0.0;
  cfg.smp_compute_dilation = 0.0;
  return cfg;
}

Program compute_once(sim::TimeNs dur) { co_await Compute{dur}; }

Program compute_n(int n, sim::TimeNs dur) {
  for (int i = 0; i < n; ++i) co_await Compute{dur};
}

Program sleep_then_compute(sim::TimeNs sleep, sim::TimeNs dur) {
  co_await SleepFor{sleep};
  co_await Compute{dur};
}

double cycles_to_sec(sim::Cycles c, sim::FreqHz f) {
  return static_cast<double>(c) / static_cast<double>(f);
}

TEST(KernelSched, SingleTaskRunsAndExits) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& t = m.spawn("worker");
  t.program = compute_once(50 * kMillisecond);
  m.launch(t);
  cluster.run();

  EXPECT_TRUE(t.exited);
  EXPECT_EQ(t.state, TaskState::Dead);
  EXPECT_EQ(m.live_count(), 0u);
  // Exec time = compute + context switch + tick overheads; all small.
  const auto exec = t.end_time - t.start_time;
  EXPECT_GE(exec, 50 * kMillisecond);
  EXPECT_LT(exec, 51 * kMillisecond);
}

TEST(KernelSched, ExitedTaskIsReapedWithProfile) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& t = m.spawn("worker");
  const Pid pid = t.pid;
  t.program = compute_once(5 * kMillisecond);
  m.launch(t);
  cluster.run();

  EXPECT_EQ(m.find(pid), nullptr);
  ASSERT_EQ(m.ktau().reaped().size(), 1u);
  EXPECT_EQ(m.ktau().reaped()[0].pid, pid);
  EXPECT_EQ(m.ktau().reaped()[0].name, "worker");
}

TEST(KernelSched, SleepBlocksAndWakes) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& t = m.spawn("sleeper");
  t.program = sleep_then_compute(200 * kMillisecond, 10 * kMillisecond);
  m.launch(t);
  cluster.run();

  EXPECT_TRUE(t.exited);
  const auto exec = t.end_time - t.start_time;
  EXPECT_GE(exec, 210 * kMillisecond);
  EXPECT_LT(exec, 212 * kMillisecond);

  // The sleep shows up as voluntary scheduling (schedule_vol) inclusive
  // time in the reaped KTAU profile.
  const auto& prof = m.ktau().reaped()[0].profile;
  const auto ev = m.ktau().registry().find("schedule_vol");
  ASSERT_NE(ev, meas::kNoEventId);
  const auto& metrics = prof.metrics(ev);
  EXPECT_EQ(metrics.count, 1u);
  const double sec = cycles_to_sec(metrics.incl, m.config().freq);
  EXPECT_NEAR(sec, 0.2, 0.002);
}

TEST(KernelSched, TwoCpuBoundTasksShareOneCpuViaTimeslices) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& a = m.spawn("a");
  Task& b = m.spawn("b");
  a.program = compute_once(1 * kSecond);
  b.program = compute_once(1 * kSecond);
  m.launch(a);
  m.launch(b);
  cluster.run();

  // Serialized on one CPU: total wall time ~2 s.
  const auto end = std::max(a.end_time, b.end_time);
  EXPECT_GE(end, 2 * kSecond);
  EXPECT_LT(end, static_cast<sim::TimeNs>(2.05 * kSecond));

  // Both tasks experienced involuntary preemption (timeslice expiry).
  const auto ev = m.ktau().registry().find("schedule");
  ASSERT_NE(ev, meas::kNoEventId);
  std::uint64_t invol_a = 0, invol_b = 0;
  for (const auto& r : m.ktau().reaped()) {
    if (r.name == "a") invol_a = r.profile.metrics(ev).count;
    if (r.name == "b") invol_b = r.profile.metrics(ev).count;
  }
  // 100 ms timeslices over 1 s each: several preemptions per task.
  EXPECT_GE(invol_a + invol_b, 8u);
  EXPECT_GE(invol_a, 1u);
  EXPECT_GE(invol_b, 1u);
}

TEST(KernelSched, PinnedTasksRunConcurrentlyOnTwoCpus) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(2));
  Task& a = m.spawn("a", cpu_bit(0));
  Task& b = m.spawn("b", cpu_bit(1));
  a.program = compute_once(1 * kSecond);
  b.program = compute_once(1 * kSecond);
  m.launch(a);
  m.launch(b);
  cluster.run();

  const auto end = std::max(a.end_time, b.end_time);
  EXPECT_LT(end, static_cast<sim::TimeNs>(1.05 * kSecond));

  // No preemption at all: each task owned its CPU.
  const auto ev = m.ktau().registry().find("schedule");
  for (const auto& r : m.ktau().reaped()) {
    EXPECT_EQ(r.profile.metrics(ev).count, 0u) << r.name;
  }
}

TEST(KernelSched, UnpinnedTasksSpreadAcrossIdleCpus) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(4));
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    Task& t = m.spawn(std::string("t").append(std::to_string(i)));
    t.program = compute_once(500 * kMillisecond);
    tasks.push_back(&t);
    m.launch(t);
  }
  cluster.run();
  // Perfect spread: everything finishes in ~0.5 s.
  for (Task* t : tasks) {
    EXPECT_LT(t->end_time, static_cast<sim::TimeNs>(0.52 * kSecond));
  }
}

TEST(KernelSched, PushBalanceMigratesWaitingTaskToIdleCpu) {
  Cluster cluster;
  auto cfg = quiet_config(2);
  cfg.balance_interval_ticks = 5;  // 50 ms at HZ=100
  Machine& m = cluster.add_machine(cfg);
  // Both tasks start pinned-like on CPU0 via last_cpu default and a busy
  // CPU0: spawn a long runner first, then a second runnable task while
  // CPU1 stays idle.  The balancer must move the waiter to CPU1.
  Task& hog = m.spawn("hog", cpu_bit(0));
  hog.program = compute_once(2 * kSecond);
  m.launch(hog);
  Task& w = m.spawn("w");  // allowed anywhere, but placed on CPU0's queue
  w.last_cpu = 0;
  w.program = compute_once(100 * kMillisecond);
  // Force initial placement onto the busy CPU by making CPU1 look
  // non-idle at launch: run hog first, then enqueue w on cpu0 directly.
  m.launch(w);
  cluster.run_until(10 * kMillisecond);
  cluster.run();
  // w finishes long before the hog would have released CPU0.
  EXPECT_LT(w.end_time, 500 * kMillisecond);
  EXPECT_TRUE(hog.exited);
}

TEST(KernelSched, YieldRotatesRunqueue) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& a = m.spawn("a");
  Task& b = m.spawn("b");
  // a yields between small bursts; b is a small burst. Yield lets b in
  // before a's second burst even though the timeslice never expires.
  a.program = [](void) -> Program {
    co_await Compute{10 * kMillisecond};
    co_await Yield{};
    co_await Compute{10 * kMillisecond};
  }();
  b.program = compute_once(10 * kMillisecond);
  m.launch(a);
  m.launch(b);
  cluster.run();
  EXPECT_LT(b.end_time, a.end_time);
  // a's yield is accounted as voluntary scheduling.
  const auto vol = m.ktau().registry().find("schedule_vol");
  std::uint64_t a_vol = 0;
  for (const auto& r : m.ktau().reaped()) {
    if (r.name == "a") a_vol = r.profile.metrics(vol).count;
  }
  EXPECT_EQ(a_vol, 1u);
}

TEST(KernelSched, NullSyscallsAreCountedPerProcess) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& t = m.spawn("caller");
  t.program = [](void) -> Program {
    for (int i = 0; i < 25; ++i) co_await NullSyscall{};
  }();
  m.launch(t);
  cluster.run();
  const auto ev = m.ktau().registry().find("sys_getpid");
  ASSERT_NE(ev, meas::kNoEventId);
  EXPECT_EQ(m.ktau().reaped()[0].profile.metrics(ev).count, 25u);
}

TEST(KernelSched, PageFaultsChargeExceptionGroup) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& t = m.spawn("faulter");
  t.program = [](void) -> Program {
    for (int i = 0; i < 7; ++i) co_await Fault{};
  }();
  m.launch(t);
  cluster.run();
  const auto ev = m.ktau().registry().find("do_page_fault");
  const auto& prof = m.ktau().reaped()[0].profile;
  EXPECT_EQ(prof.metrics(ev).count, 7u);
  EXPECT_EQ(m.ktau().registry().info(ev).group, meas::Group::Exception);
}

TEST(KernelSched, TimerTicksChargeCurrentProcess) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& t = m.spawn("busy");
  t.program = compute_once(1 * kSecond);
  m.launch(t);
  cluster.run();
  const auto ev = m.ktau().registry().find("timer_interrupt");
  const auto& prof = m.ktau().reaped()[0].profile;
  // HZ=100 over 1 s of CPU-bound execution: ~100 ticks, charged to the
  // interrupted process (KTAU's process-centric attribution of
  // asynchronous kernel work).
  EXPECT_GE(prof.metrics(ev).count, 95u);
  EXPECT_LE(prof.metrics(ev).count, 105u);
}

TEST(KernelSched, SignalWakesInterruptibleSleeperEarly) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& t = m.spawn("sleeper");
  t.program = sleep_then_compute(10 * kSecond, 1 * kMillisecond);
  m.launch(t);
  cluster.engine().schedule_at(1 * kSecond, [&] { m.send_signal(t); });
  cluster.run();
  EXPECT_TRUE(t.exited);
  // Woken at ~1 s, not 10 s.
  EXPECT_LT(t.end_time, static_cast<sim::TimeNs>(1.1 * kSecond));
  const auto ev = m.ktau().registry().find("signal_deliver");
  EXPECT_EQ(m.ktau().reaped()[0].profile.metrics(ev).count, 1u);
}

TEST(KernelSched, StaleSleepTimerDoesNotWakeLaterBlock) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& t = m.spawn("sleeper");
  // Sleep 5 s (interrupted by a signal at 1 s), then sleep another 10 s.
  // The stale 5 s timer fires at ~5 s during the second sleep and must NOT
  // cut it short.
  t.program = [](void) -> Program {
    co_await SleepFor{5 * kSecond};
    co_await SleepFor{10 * kSecond};
  }();
  m.launch(t);
  cluster.engine().schedule_at(1 * kSecond, [&] { m.send_signal(t); });
  cluster.run();
  EXPECT_TRUE(t.exited);
  EXPECT_GE(t.end_time, 11 * kSecond);
}

TEST(KernelSched, HogOnSharedCpuInflatesInvoluntaryScheduling) {
  // Miniature of the paper's Figure 2-C setup: an LU-like worker shares
  // CPU0 with a periodic busy-loop daemon; the worker suffers involuntary
  // scheduling while the daemon's bursts overlap its compute.
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& worker = m.spawn("lu");
  worker.program = compute_n(30, 100 * kMillisecond);  // 3 s of compute
  Task& hog = m.spawn("hog");
  hog.is_daemon = true;
  hog.program = [](void) -> Program {
    for (int i = 0; i < 3; ++i) {
      co_await SleepFor{500 * kMillisecond};
      co_await Compute{500 * kMillisecond};
    }
  }();
  m.launch(worker);
  m.launch(hog);
  cluster.run();

  const auto invol = m.ktau().registry().find("schedule");
  sim::Cycles worker_invol = 0;
  for (const auto& r : m.ktau().reaped()) {
    if (r.name == "lu") worker_invol = r.profile.metrics(invol).incl;
  }
  const double sec = cycles_to_sec(worker_invol, m.config().freq);
  // The hog computes 1.5 s total while the worker wants the CPU; the worker
  // should lose roughly that much to involuntary waits.
  EXPECT_GT(sec, 1.0);
  EXPECT_LT(sec, 2.0);
}

TEST(KernelSched, TaskStartDelayHonored) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& t = m.spawn("late", kAllCpus, 3 * kSecond);
  t.program = compute_once(1 * kMillisecond);
  m.launch(t);
  cluster.run();
  EXPECT_GE(t.start_time, 3 * kSecond);
}

TEST(KernelSched, LaunchWithoutProgramThrows) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& t = m.spawn("empty");
  EXPECT_THROW(m.launch(t), std::logic_error);
}

TEST(KernelSched, ProgramExceptionPropagates) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& t = m.spawn("thrower");
  t.program = [](void) -> Program {
    co_await Compute{1 * kMillisecond};
    throw std::runtime_error("app bug");
  }();
  m.launch(t);
  EXPECT_THROW(cluster.run(), std::runtime_error);
}

TEST(KernelSched, ActivationStackBalancedAfterRun) {
  // Property: after a run completes, no task profile has a dangling
  // activation frame (all entry/exit pairs matched).
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(2));
  for (int i = 0; i < 6; ++i) {
    Task& t = m.spawn(std::string("t").append(std::to_string(i)));
    t.program = [](void) -> Program {
      for (int k = 0; k < 10; ++k) {
        co_await Compute{7 * kMillisecond};
        co_await NullSyscall{};
        co_await SleepFor{3 * kMillisecond};
        co_await Yield{};
      }
    }();
    m.launch(t);
  }
  cluster.run();
  for (const auto& r : m.ktau().reaped()) {
    EXPECT_EQ(r.profile.stack_depth(), 0u) << r.name;
  }
}

TEST(KernelSched, InclusiveAtLeastExclusiveEverywhere) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(2));
  for (int i = 0; i < 4; ++i) {
    Task& t = m.spawn(std::string("t").append(std::to_string(i)));
    t.program = [](void) -> Program {
      for (int k = 0; k < 20; ++k) {
        co_await Compute{11 * kMillisecond};
        co_await SleepFor{2 * kMillisecond};
      }
    }();
    m.launch(t);
  }
  cluster.run();
  for (const auto& r : m.ktau().reaped()) {
    for (const auto& metric : r.profile.all_metrics()) {
      EXPECT_GE(metric.incl, metric.excl);
    }
  }
}

TEST(KernelSched, KtauOffRecordsNothingButRuns) {
  Cluster cluster;
  auto cfg = quiet_config(1);
  cfg.ktau.runtime_enabled = meas::kNoGroups;  // "Ktau Off" configuration
  Machine& m = cluster.add_machine(cfg);
  Task& t = m.spawn("worker");
  t.program = sleep_then_compute(50 * kMillisecond, 50 * kMillisecond);
  m.launch(t);
  cluster.run();
  EXPECT_TRUE(t.exited);
  const auto& prof = m.ktau().reaped()[0].profile;
  for (const auto& metric : prof.all_metrics()) {
    EXPECT_EQ(metric.count, 0u);
  }
}

TEST(KernelSched, BaseKernelHasZeroMeasurementCost) {
  auto run_with = [](bool compiled) {
    Cluster cluster;
    MachineConfig cfg;
    cfg.cpus = 1;
    cfg.ktau.compiled_in = compiled;
    cfg.ktau.charge_overhead = true;
    Machine& m = cluster.add_machine(cfg);
    Task& t = m.spawn("worker");
    t.program = compute_n(50, 20 * sim::kMillisecond);
    m.launch(t);
    cluster.run();
    return t.end_time - t.start_time;
  };
  const auto base = run_with(false);
  const auto instrumented = run_with(true);
  EXPECT_GT(instrumented, base);  // instrumentation perturbs
  // ...but only by the low single-digit percents the paper's Table 3
  // reports for full instrumentation (compute-bound task: mostly ticks).
  EXPECT_LT(static_cast<double>(instrumented - base) /
                static_cast<double>(base),
            0.025);
}

TEST(KernelSched, ContextSwitchCounterAdvances) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet_config(1));
  Task& a = m.spawn("a");
  Task& b = m.spawn("b");
  a.program = compute_once(300 * kMillisecond);
  b.program = compute_once(300 * kMillisecond);
  m.launch(a);
  m.launch(b);
  cluster.run();
  EXPECT_GE(m.total_context_switches(), 4u);
}

}  // namespace
}  // namespace ktau::kernel
