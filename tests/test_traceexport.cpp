// Tests for the KTL merged-trace export (the Vampir/Jumpshot hand-off).
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/traceexport.hpp"
#include "kernel/cluster.hpp"
#include "libktau/libktau.hpp"

namespace ktau::analysis {
namespace {

using kernel::Cluster;
using kernel::Machine;
using kernel::MachineConfig;
using kernel::Program;
using kernel::Task;
using sim::kMillisecond;

struct TracedRun {
  Cluster cluster;
  Machine* m = nullptr;
  Task* t = nullptr;
  std::unique_ptr<tau::Profiler> prof;
  meas::TraceSnapshot ktrace;
  meas::Pid pid = 0;

  TracedRun() {
    MachineConfig cfg;
    cfg.cpus = 1;
    cfg.ktau.charge_overhead = false;
    cfg.ktau.tracing = true;
    cfg.ktau.trace_capacity = 1 << 14;
    m = &cluster.add_machine(cfg);
    t = &m->spawn("traced");
    pid = t->pid;
    tau::TauConfig tc;
    tc.charge_overhead = false;
    tc.tracing = true;
    prof = std::make_unique<tau::Profiler>(*m, *t, tc);
    const auto f = prof->reg("step");
    t->program = [](tau::Profiler& p, tau::FuncId fs) -> Program {
      for (int i = 0; i < 3; ++i) {
        p.enter(fs);
        co_await kernel::NullSyscall{};
        co_await kernel::Compute{4 * kMillisecond};
        p.exit(fs);
      }
      co_await kernel::Compute{100 * kMillisecond};  // keep task alive
    }(*prof, f);
    m->launch(*t);
    cluster.run_until(50 * kMillisecond);  // read while the task is live
    user::KtauHandle handle(m->proc());
    ktrace = handle.get_trace_incremental(meas::Scope::All);
    cluster.run();
  }
};

TEST(TraceExport, RoundTripsThroughReader) {
  TracedRun run;
  std::ostringstream os;
  export_ktl(os, run.m->config().freq,
             {{run.pid, "traced", &run.ktrace, run.prof.get()}});
  const auto file = read_ktl(os.str());

  EXPECT_EQ(file.freq, run.m->config().freq);
  ASSERT_EQ(file.streams.size(), 1u);
  EXPECT_EQ(file.streams[0].second, "traced");
  ASSERT_GT(file.events.size(), 10u);

  // Time-sorted, balanced per side, and containing both U and K events.
  sim::TimeNs prev = 0;
  int depth = 0;
  bool has_user = false, has_kernel = false;
  for (const auto& e : file.events) {
    EXPECT_GE(e.timestamp, prev);
    prev = e.timestamp;
    if (e.kind == KtlEvent::Kind::Enter) ++depth;
    if (e.kind == KtlEvent::Kind::Leave) --depth;
    EXPECT_GE(depth, 0);
    has_user |= !e.is_kernel;
    has_kernel |= e.is_kernel;
  }
  EXPECT_TRUE(has_user);
  EXPECT_TRUE(has_kernel);

  // The user "step" regions appear exactly 3 times as enters.
  int step_enters = 0;
  for (const auto& e : file.events) {
    if (!e.is_kernel && e.name == "step" &&
        e.kind == KtlEvent::Kind::Enter) {
      ++step_enters;
    }
  }
  EXPECT_EQ(step_enters, 3);
}

TEST(TraceExport, MultipleStreamsKeepIds) {
  TracedRun run;
  std::ostringstream os;
  export_ktl(os, run.m->config().freq,
             {{run.pid, "one", &run.ktrace, nullptr},
              {run.pid, "two", nullptr, run.prof.get()}});
  const auto file = read_ktl(os.str());
  ASSERT_EQ(file.streams.size(), 2u);
  bool saw0 = false, saw1 = false;
  for (const auto& e : file.events) {
    saw0 |= e.stream == 0;
    saw1 |= e.stream == 1;
    if (e.stream == 0) {
      EXPECT_TRUE(e.is_kernel);
    }
    if (e.stream == 1) {
      EXPECT_FALSE(e.is_kernel);
    }
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
}

TEST(TraceExport, ReaderRejectsGarbage) {
  EXPECT_THROW(read_ktl(""), std::runtime_error);
  EXPECT_THROW(read_ktl("#KTL v2\n"), std::runtime_error);
  EXPECT_THROW(read_ktl("#KTL v1\nX\t1\t2\n"), std::runtime_error);
  EXPECT_THROW(read_ktl("#KTL v1\nE\tabc\n"), std::runtime_error);
}

}  // namespace
}  // namespace ktau::analysis
