// Tests for the runtime measurement-control surface (DESIGN.md §12): the
// seq-preserving TraceBuffer::resize, the mid-run group-mask flip pairing
// semantics in KtauSystem::exit (both flip directions), the aggregated
// hidden-pair draw (DESIGN.md §3a), the charged procfs control writes, and
// the adaptd closed-loop controller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "analysis/control.hpp"
#include "clients/adaptd.hpp"
#include "kernel/cluster.hpp"
#include "ktau/system.hpp"
#include "ktau/trace.hpp"
#include "libktau/libktau.hpp"
#include "sim/rng.hpp"

namespace ktau {
namespace {

using meas::Group;
using meas::KtauConfig;
using meas::KtauSystem;
using meas::TaskProfile;
using meas::TraceBuffer;
using meas::TraceRecord;
using sim::kMillisecond;
using sim::kSecond;

TraceRecord rec(std::uint64_t seq) {
  return {seq, static_cast<meas::EventId>(seq % 5),
          seq % 2 == 0 ? meas::TraceType::Entry : meas::TraceType::Exit, 0};
}

// -- TraceBuffer::resize -----------------------------------------------------

TEST(TraceResize, GrowPreservesRecordsAndSequences) {
  TraceBuffer buf(4);
  for (std::uint64_t i = 0; i < 6; ++i) buf.push(rec(i));  // retains 2..5

  EXPECT_EQ(buf.resize(8), 4u);  // every retained record survives
  EXPECT_EQ(buf.capacity(), 8u);
  EXPECT_EQ(buf.next_seq(), 6u);
  EXPECT_EQ(buf.oldest_seq(), 2u);

  // A reader's cursor stays valid: pre-resize loss is still reported, the
  // retained records keep their sequence numbers.
  std::vector<TraceRecord> out;
  meas::TraceDrain d = buf.read_from(0, out);
  EXPECT_EQ(d.loss.dropped, 2u);
  EXPECT_EQ(d.loss.first_seq, 0u);
  ASSERT_EQ(out.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], rec(2 + i));
  EXPECT_EQ(d.next_seq, 6u);

  // The grown ring actually holds 8 records before overwriting again.
  for (std::uint64_t i = 6; i < 10; ++i) buf.push(rec(i));
  out.clear();
  d = buf.read_from(2, out);
  EXPECT_EQ(d.loss.dropped, 0u);
  EXPECT_EQ(out.size(), 8u);
}

TEST(TraceResize, ShrinkKeepsNewestAndCountsTypedLoss) {
  TraceBuffer buf(8);
  for (std::uint64_t i = 0; i < 8; ++i) buf.push(rec(i));  // full, no loss

  EXPECT_EQ(buf.resize(2), 2u);  // newest two retained
  EXPECT_EQ(buf.capacity(), 2u);
  EXPECT_EQ(buf.next_seq(), 8u);
  EXPECT_EQ(buf.oldest_seq(), 6u);

  // The six discarded records surface exactly like ring overwrite: typed
  // loss on a cursor read — never silent.
  std::vector<TraceRecord> out;
  meas::TraceDrain d = buf.read_from(0, out);
  EXPECT_EQ(d.loss.dropped, 6u);
  EXPECT_EQ(d.loss.first_seq, 0u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], rec(6));
  EXPECT_EQ(out[1], rec(7));
}

TEST(TraceResize, ShrinkWithinRetentionDropsOnlyOverflow) {
  TraceBuffer buf(8);
  for (std::uint64_t i = 0; i < 3; ++i) buf.push(rec(i));

  // Only 3 records retained: shrinking to 4 discards nothing.
  EXPECT_EQ(buf.resize(4), 3u);
  EXPECT_EQ(buf.oldest_seq(), 0u);
  std::vector<TraceRecord> out;
  EXPECT_EQ(buf.read_from(0, out).loss.dropped, 0u);
  EXPECT_EQ(out.size(), 3u);
}

TEST(TraceResize, PushAfterShrinkWrapsConsistently) {
  TraceBuffer buf(8);
  for (std::uint64_t i = 0; i < 8; ++i) buf.push(rec(i));
  buf.resize(2);

  for (std::uint64_t i = 8; i < 11; ++i) buf.push(rec(i));
  EXPECT_EQ(buf.next_seq(), 11u);
  EXPECT_EQ(buf.oldest_seq(), 9u);
  std::vector<TraceRecord> out;
  meas::TraceDrain d = buf.read_from(8, out);
  EXPECT_EQ(d.loss.dropped, 1u);  // seq 8 overwritten post-resize
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], rec(9));
  EXPECT_EQ(out[1], rec(10));
}

TEST(TraceResize, DrainCursorSurvivesResize) {
  TraceBuffer buf(4);
  for (std::uint64_t i = 0; i < 4; ++i) buf.push(rec(i));
  std::vector<TraceRecord> out;
  const meas::TraceDrain first = buf.read_from(0, out);  // reads 0..3
  EXPECT_EQ(first.loss.dropped, 0u);
  out.clear();

  buf.resize(2);  // nothing retained is unread; the reader loses nothing
  for (std::uint64_t i = 4; i < 6; ++i) buf.push(rec(i));
  EXPECT_EQ(buf.read_from(first.next_seq, out).loss.dropped, 0u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], rec(4));
  EXPECT_EQ(out[1], rec(5));
}

TEST(TraceResize, SameCapacityIsIdentityAndZeroThrows) {
  TraceBuffer buf(4);
  for (std::uint64_t i = 0; i < 6; ++i) buf.push(rec(i));
  EXPECT_EQ(buf.resize(4), 4u);
  EXPECT_EQ(buf.oldest_seq(), 2u);
  EXPECT_EQ(buf.next_seq(), 6u);
  EXPECT_THROW(buf.resize(0), std::invalid_argument);
  EXPECT_EQ(buf.capacity(), 4u);  // rejected resize left the ring intact
}

// -- KtauSystem::exit pairing under mid-run mask flips -----------------------

struct ProbeEnv {
  KtauSystem sys;
  meas::CpuClock clock;
  TaskProfile prof;
  meas::EventId sched_ev;
  meas::EventId sys_ev;

  explicit ProbeEnv(KtauConfig cfg = make_cfg()) : sys(cfg) {
    // 1 GHz: one cycle is one nanosecond, so charged costs are exact on
    // the cursor (the quiet-config precision pattern, inverted: here the
    // charging itself is under test).
    clock.freq = 1'000'000'000;
    prof.enable_trace(16);
    sched_ev = sys.map_event("t_sched", Group::Sched);
    sys_ev = sys.map_event("t_syscall", Group::Syscall);
  }

  static KtauConfig make_cfg() {
    KtauConfig cfg;
    cfg.tracing = true;
    // No outliers: every draw is a plain shifted exponential >= min, which
    // keeps the lower-bound assertions tight without fixing exact values.
    cfg.overhead.outlier_prob = 0;
    return cfg;
  }
};

TEST(MaskFlip, OnToOffForceClosesOpenFrame) {
  ProbeEnv env;
  env.sys.entry(env.clock, &env.prof, env.sys_ev);
  ASSERT_EQ(env.prof.stack_depth(), 1u);

  env.sys.set_runtime_groups(meas::mask_of(Group::Sched));  // Syscall off
  const sim::TimeNs before = env.clock.cursor;
  const auto stops_before = env.sys.stop_overhead().count();
  ASSERT_NO_THROW(env.sys.exit(env.clock, &env.prof, env.sys_ev));

  // The frame closed, the row counted, and the full stop probe cost was
  // charged (a real draw, not the disabled-check pittance).
  EXPECT_EQ(env.prof.stack_depth(), 0u);
  EXPECT_EQ(env.prof.metrics(env.sys_ev).count, 1u);
  EXPECT_EQ(env.sys.stop_overhead().count(), stops_before + 1);
  EXPECT_GE(env.clock.cursor - before,
            static_cast<sim::TimeNs>(env.sys.config().overhead.stop_min));

  // Tracing saw a balanced Entry/Exit pair.
  std::vector<TraceRecord> out;
  env.prof.trace()->read_from(0, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].type, meas::TraceType::Entry);
  EXPECT_EQ(out[1].type, meas::TraceType::Exit);
}

TEST(MaskFlip, OffToOnExitWithoutEntryChargesButDoesNotTouchStack) {
  ProbeEnv env;
  env.sys.set_runtime_groups(meas::mask_of(Group::Sched));  // Syscall off
  env.sys.entry(env.clock, &env.prof, env.sys_ev);          // suppressed
  ASSERT_EQ(env.prof.stack_depth(), 0u);

  env.sys.set_runtime_groups(meas::kAllGroups);  // back on while "inside"
  const auto stops_before = env.sys.stop_overhead().count();
  const sim::TimeNs before = env.clock.cursor;
  ASSERT_NO_THROW(env.sys.exit(env.clock, &env.prof, env.sys_ev));

  // No frame to close, no row, no Exit trace record — but the probe body
  // ran and charged full stop cost.
  EXPECT_EQ(env.prof.stack_depth(), 0u);
  EXPECT_EQ(env.prof.metrics(env.sys_ev).count, 0u);
  EXPECT_EQ(env.sys.stop_overhead().count(), stops_before + 1);
  EXPECT_GE(env.clock.cursor - before,
            static_cast<sim::TimeNs>(env.sys.config().overhead.stop_min));
  std::vector<TraceRecord> out;
  env.prof.trace()->read_from(0, out);
  EXPECT_TRUE(out.empty());
}

TEST(MaskFlip, SteadyOffChargesOnlyTheFlagCheck) {
  ProbeEnv env;
  env.sys.set_runtime_groups(meas::mask_of(Group::Sched));
  const sim::TimeNs before = env.clock.cursor;
  env.sys.entry(env.clock, &env.prof, env.sys_ev);
  env.sys.exit(env.clock, &env.prof, env.sys_ev);
  // Two disabled checks, nothing else: no draws, no rows, no records.
  EXPECT_EQ(env.clock.cursor - before,
            2 * static_cast<sim::TimeNs>(
                    env.sys.config().overhead.disabled_check));
  EXPECT_EQ(env.sys.stop_overhead().count(), 0);
  EXPECT_EQ(env.sys.start_overhead().count(), 0);
}

TEST(MaskFlip, FlipUnderNestedFramesKeepsOuterFramePaired) {
  ProbeEnv env;
  env.sys.entry(env.clock, &env.prof, env.sys_ev);    // outer (Syscall)
  env.sys.entry(env.clock, &env.prof, env.sched_ev);  // inner (Sched)
  env.sys.set_runtime_groups(meas::mask_of(Group::Sched));  // Syscall off

  // Inner exit is live and paired; outer exit is masked off but paired —
  // both close, the stack unwinds cleanly, both rows count.
  ASSERT_NO_THROW(env.sys.exit(env.clock, &env.prof, env.sched_ev));
  ASSERT_NO_THROW(env.sys.exit(env.clock, &env.prof, env.sys_ev));
  EXPECT_EQ(env.prof.stack_depth(), 0u);
  EXPECT_EQ(env.prof.metrics(env.sched_ev).count, 1u);
  EXPECT_EQ(env.prof.metrics(env.sys_ev).count, 1u);
}

TEST(MaskFlip, OnToOffForceCloseKeepsRequestTag) {
  // Extends the flip matrix with a tagged frame (DESIGN.md §14): the exit
  // pairs against the in-flight entry, so the tag captured at entry — not
  // the profile's live tag, not the mask — decides the request attribution
  // and the trace Exit payload.
  ProbeEnv env;
  env.prof.set_request_tag(7);
  env.sys.entry(env.clock, &env.prof, env.sys_ev);
  env.prof.set_request_tag(0);  // request "ended" while the frame is open
  env.sys.set_runtime_groups(meas::mask_of(Group::Sched));  // Syscall off
  ASSERT_NO_THROW(env.sys.exit(env.clock, &env.prof, env.sys_ev));

  // The force-closed frame credited its cycles to tag 7.
  EXPECT_EQ(env.prof.last_closed_tag(), 7u);
  const auto& rows = env.prof.requests();
  const auto it = std::find_if(rows.begin(), rows.end(), [&](const auto& r) {
    return r.first == meas::bridge_key(7, env.sys_ev);
  });
  ASSERT_NE(it, rows.end());
  EXPECT_EQ(it->second.count, 1u);
  // Both trace records carry the tag, Entry and force-closed Exit alike.
  std::vector<TraceRecord> out;
  env.prof.trace()->read_from(0, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].type, meas::TraceType::Entry);
  EXPECT_EQ(out[0].value, 7u);
  EXPECT_EQ(out[1].type, meas::TraceType::Exit);
  EXPECT_EQ(out[1].value, 7u);
}

TEST(MaskFlip, OffToOnSuppressedEntryLeavesRequestsUntouched) {
  // The mirror case: the entry was suppressed by the mask, so the matching
  // exit after the flip has no frame — and therefore no tag to attribute,
  // even though the profile's live tag is set.
  ProbeEnv env;
  env.sys.set_runtime_groups(meas::mask_of(Group::Sched));  // Syscall off
  env.prof.set_request_tag(9);
  env.sys.entry(env.clock, &env.prof, env.sys_ev);  // suppressed
  env.sys.set_runtime_groups(meas::kAllGroups);
  ASSERT_NO_THROW(env.sys.exit(env.clock, &env.prof, env.sys_ev));

  EXPECT_EQ(env.prof.last_closed_tag(), 0u);
  EXPECT_EQ(env.prof.requests().size(), 0u);
  std::vector<TraceRecord> out;
  env.prof.trace()->read_from(0, out);
  EXPECT_TRUE(out.empty());
}

// -- KtauSystem::hidden_pairs: one aggregated draw ---------------------------

constexpr std::uint64_t kProbeSeed = 0x5EED;

// One probe cost by the per-draw formula (an outlier test, then one
// exponential of the chosen mixture component): the reference the
// aggregated draw must reproduce from the same uniforms.
double reference_cost(sim::Rng& rng, const meas::OverheadModel& m, double min,
                      double mean) {
  const double p = m.outlier_prob;
  if (p > 0 && rng.bernoulli(p)) {
    return rng.shifted_exponential(min, m.outlier_mean);
  }
  const double base_mean =
      p > 0 ? (mean - p * m.outlier_mean) / (1.0 - p) : mean;
  return rng.shifted_exponential(min, std::max(base_mean, min + 1.0));
}

double reference_start(sim::Rng& rng, const meas::OverheadModel& m) {
  return reference_cost(rng, m, m.start_min, m.start_mean);
}

// N hidden pairs charge the truncated sum of the 2N per-draw costs and
// leave the stream where 2N explicit draws would: the next explicit entry
// draws, bit for bit, what a fresh generator gives after skipping 4N
// uniforms (2N without the outlier tests).
void expect_same_stream(std::uint32_t pairs, double outlier_prob) {
  KtauConfig cfg;
  cfg.overhead.outlier_prob = outlier_prob;
  const meas::OverheadModel& m = cfg.overhead;
  KtauSystem sys(cfg, kProbeSeed);
  meas::CpuClock clock;
  clock.freq = 1'000'000'000;  // one cycle per nanosecond
  const meas::EventId ev = sys.map_event("t_syscall", Group::Syscall);

  sys.hidden_pairs(clock, Group::Syscall, pairs);
  sim::Rng ref(kProbeSeed);
  double sum = 0;
  for (std::uint32_t i = 0; i < pairs; ++i) {
    sum += reference_start(ref, m);
    sum += reference_cost(ref, m, m.stop_min, m.stop_mean);
  }
  EXPECT_NEAR(static_cast<double>(sys.total_overhead_cycles()),
              std::floor(sum), 1.0);
  EXPECT_EQ(clock.cursor,
            static_cast<sim::TimeNs>(sys.total_overhead_cycles()));
  EXPECT_TRUE(sys.start_overhead().empty());
  EXPECT_TRUE(sys.stop_overhead().empty());

  sim::Rng next(kProbeSeed);
  const std::uint64_t uniforms = (outlier_prob > 0 ? 4u : 2u) * pairs;
  for (std::uint64_t i = 0; i < uniforms; ++i) next.next_u64();
  sys.entry(clock, nullptr, ev);
  ASSERT_EQ(sys.start_overhead().count(), 1u);
  EXPECT_EQ(sys.start_overhead().min(), reference_start(next, m));
}

constexpr double kDefaultOutlierProb = meas::OverheadModel{}.outlier_prob;

TEST(HiddenPairs, OnePairReadsTheExplicitStream) {
  expect_same_stream(1, kDefaultOutlierProb);
}

TEST(HiddenPairs, EightPairsReadTheExplicitStream) {
  expect_same_stream(8, kDefaultOutlierProb);
}

TEST(HiddenPairs, SixtyPairsReadTheExplicitStream) {
  expect_same_stream(60, kDefaultOutlierProb);
}

TEST(HiddenPairs, FourHundredPairsReadTheExplicitStream) {
  expect_same_stream(400, kDefaultOutlierProb);
}

TEST(HiddenPairs, NoOutlierTestsWithoutOutliers) {
  expect_same_stream(8, 0.0);
}

TEST(HiddenPairs, DisabledGroupChargesFlagChecksAndDrawsNothing) {
  KtauConfig cfg;
  KtauSystem sys(cfg, kProbeSeed);
  meas::CpuClock clock;
  const meas::EventId sched_ev = sys.map_event("t_sched", Group::Sched);
  sys.set_runtime_groups(meas::mask_of(Group::Sched));  // Syscall off

  sys.hidden_pairs(clock, Group::Syscall, 8);
  EXPECT_EQ(sys.total_overhead_cycles(),
            static_cast<sim::Cycles>(8 * cfg.overhead.disabled_check));
  sys.entry(clock, nullptr, sched_ev);
  sim::Rng fresh(kProbeSeed);
  EXPECT_EQ(sys.start_overhead().min(), reference_start(fresh, cfg.overhead));
}

TEST(HiddenPairs, ZeroPairsAndCompiledOutAreNoOps) {
  KtauSystem sys(KtauConfig{}, kProbeSeed);
  meas::CpuClock clock;
  const meas::EventId ev = sys.map_event("t_syscall", Group::Syscall);
  sys.hidden_pairs(clock, Group::Syscall, 0);
  EXPECT_EQ(sys.total_overhead_cycles(), 0u);
  EXPECT_EQ(clock.cursor, 0);
  sys.entry(clock, nullptr, ev);
  sim::Rng fresh(kProbeSeed);
  EXPECT_EQ(sys.start_overhead().min(),
            reference_start(fresh, KtauConfig{}.overhead));

  KtauConfig off;
  off.compiled_in = false;
  KtauSystem base(off, kProbeSeed);
  meas::CpuClock base_clock;
  base.hidden_pairs(base_clock, Group::Syscall, 60);
  EXPECT_EQ(base.total_overhead_cycles(), 0u);
  EXPECT_EQ(base_clock.cursor, 0);
}

TEST(HiddenPairs, MillionPairsChargeTheMixtureMeans) {
  // Long enough for every component's uniform product to be folded into
  // its log sum many times over.
  constexpr std::uint32_t kPairs = 1'000'000;
  KtauConfig cfg;
  const meas::OverheadModel& m = cfg.overhead;
  KtauSystem sys(cfg, kProbeSeed);
  meas::CpuClock clock;
  sys.hidden_pairs(clock, Group::Syscall, kPairs);
  const double charged = static_cast<double>(sys.total_overhead_cycles());
  ASSERT_TRUE(std::isfinite(charged));
  EXPECT_NEAR(charged, kPairs * (m.start_mean + m.stop_mean),
              0.01 * kPairs * (m.start_mean + m.stop_mean));
}

// -- mid-run flips against a live machine (the adaptd actuator path) ---------

kernel::Program sleeper_program(int naps) {
  for (int i = 0; i < naps; ++i) {
    co_await kernel::SleepFor{100 * kMillisecond};
    co_await kernel::Compute{1 * kMillisecond};
  }
  // Outlive the test horizon: a reaped task's profile is moved into the
  // measurement system, so the Task-side handle must stay live to inspect.
  co_await kernel::SleepFor{60 * kSecond};
}

TEST(MaskFlipMachine, FlipAcrossBlockedSleeperBothDirections) {
  kernel::Cluster cluster;
  kernel::MachineConfig mcfg;
  mcfg.cpus = 1;
  mcfg.ktau.tracing = true;
  kernel::Machine& m = cluster.add_machine(mcfg);
  kernel::Task& sleeper = m.spawn("sleeper");
  sleeper.program = sleeper_program(8);
  m.launch(sleeper);

  user::KtauHandle handle(m.proc());
  const meas::EventId nanosleep =
      m.ktau().map_event("sys_nanosleep", Group::Syscall);

  // Let the sleeper block mid-nap: its pseudo-callstack holds the open
  // sys_nanosleep (and schedule) frames.
  cluster.run_until(150 * kMillisecond);
  ASSERT_GE(sleeper.prof.stack_depth(), 1u);

  // ON -> OFF while blocked: before the pairing fix the wake-up exit of the
  // masked-off sys_nanosleep frame left the stack unbalanced and the next
  // exit threw std::logic_error.
  handle.set_groups(Group::Sched | Group::Irq);
  ASSERT_NO_THROW(cluster.run_until(450 * kMillisecond));
  const std::uint64_t count_off = sleeper.prof.metrics(nanosleep).count;

  // OFF -> ON while blocked again: the wake-up exit has no matching entry
  // (it was suppressed); charged, not counted, no throw.
  handle.set_groups(meas::kAllGroups);
  ASSERT_NO_THROW(cluster.run_until(1200 * kMillisecond));  // all 8 naps done

  // Profile rows responded to the flips: sleeps under the masked window are
  // missing from the count, later sleeps (entered after the restore) are
  // counted again.
  const std::uint64_t count_final = sleeper.prof.metrics(nanosleep).count;
  EXPECT_GT(count_final, count_off);
  EXPECT_LT(count_final, 8u);

  // Trace volume responded too: Syscall records exist but fewer than a
  // fully-enabled run's 2 per nap.
  std::vector<TraceRecord> out;
  sleeper.prof.trace()->read_from(0, out);
  std::size_t syscall_records = 0;
  for (const TraceRecord& r : out) {
    if (r.event == nanosleep) ++syscall_records;
  }
  EXPECT_GT(syscall_records, 0u);
  EXPECT_LT(syscall_records, 16u);
}

// -- charged procfs control writes -------------------------------------------

TEST(ControlCharge, MaskWriteChargedThroughClockAndFreeWithout) {
  kernel::Cluster cluster;
  kernel::MachineConfig mcfg;
  mcfg.cpus = 1;
  kernel::Machine& m = cluster.add_machine(mcfg);

  const auto before = m.ktau().total_overhead_cycles();
  m.proc().ctl_set_groups(meas::mask_of(Group::Sched));  // legacy free write
  EXPECT_EQ(m.ktau().total_overhead_cycles(), before);

  m.proc().ctl_set_groups(meas::kAllGroups, &m.cpu(0).clock);
  EXPECT_EQ(m.ktau().total_overhead_cycles(),
            before + static_cast<sim::Cycles>(
                         m.ktau().config().overhead.ctl_cost));
}

TEST(ControlCharge, RingResizeWalksLiveTasksAndFutureSpawnsInherit) {
  kernel::Cluster cluster;
  kernel::MachineConfig mcfg;
  mcfg.cpus = 1;
  mcfg.ktau.tracing = true;
  mcfg.ktau.trace_capacity = 64;
  kernel::Machine& m = cluster.add_machine(mcfg);
  kernel::Task& a = m.spawn("a");
  kernel::Task& b = m.spawn("b");
  ASSERT_EQ(a.prof.trace()->capacity(), 64u);

  const auto before = m.ktau().total_overhead_cycles();
  const std::size_t resized =
      m.proc().ctl_set_trace_capacity(256, meas::Scope::All, {},
                                      &m.cpu(0).clock);
  EXPECT_GE(resized, 2u);  // a, b (+ any bookkeeping tasks)
  EXPECT_EQ(a.prof.trace()->capacity(), 256u);
  EXPECT_EQ(b.prof.trace()->capacity(), 256u);
  // ctl cost plus the per-record relayout charge (>= ctl_cost even with
  // empty rings).
  EXPECT_GE(m.ktau().total_overhead_cycles() - before,
            static_cast<sim::Cycles>(m.ktau().config().overhead.ctl_cost));

  // The new default applies to tasks spawned afterwards.
  kernel::Task& c = m.spawn("c");
  EXPECT_EQ(c.prof.trace()->capacity(), 256u);
  EXPECT_EQ(m.proc().ctl_trace_capacity(), 256u);

  // Resizing to the same capacity is a no-op walk.
  EXPECT_EQ(m.proc().ctl_set_trace_capacity(256), 0u);
  EXPECT_THROW(m.proc().ctl_set_trace_capacity(0), std::invalid_argument);
}

// -- the closed-loop controller ----------------------------------------------

kernel::Program hammer_program(int iters) {
  // Sized so the hammer is still running at the controller horizon: the
  // pressure never lets up, so the end state is deterministic (sparse mask,
  // grown ring) rather than depending on where a calm window lands.
  for (int i = 0; i < iters; ++i) {
    co_await kernel::Compute{20 * sim::kMicrosecond};
    co_await kernel::NullSyscall{};
  }
  co_await kernel::SleepFor{60 * kSecond};
}

TEST(Controller, MasksDownUnderPressureAndGrowsLossyRings) {
  kernel::Cluster cluster;
  kernel::MachineConfig mcfg;
  mcfg.cpus = 1;
  mcfg.ktau.tracing = true;
  mcfg.ktau.trace_capacity = 32;
  kernel::Machine& m = cluster.add_machine(mcfg);
  kernel::Task& hammer = m.spawn("hammer");
  hammer.program = hammer_program(200'000);
  m.launch(hammer);

  clients::AdaptdConfig acfg;
  acfg.period = 100 * kMillisecond;
  acfg.until = 2 * kSecond;
  acfg.control = true;
  acfg.cycles_budget = 50'000;  // the hammer blows this every period
  acfg.max_trace_capacity = 4096;
  clients::Adaptd adaptd(m, acfg);

  cluster.run_until(2 * kSecond);

  using Action = analysis::ControlDecision::Action;
  const auto& log = adaptd.decision_log();
  ASSERT_GT(log.size(), 5u);
  bool masked_down = false, grew = false;
  for (const auto& d : log) {
    masked_down = masked_down || d.action == Action::MaskDown;
    grew = grew || d.trace_capacity > 32;
  }
  EXPECT_TRUE(masked_down);
  EXPECT_TRUE(grew);
  user::KtauHandle handle(m.proc());
  EXPECT_EQ(handle.groups(), acfg.sparse_groups);  // pressure never let up
  EXPECT_GT(handle.trace_capacity(), 32u);

  // The decision rows render one line per period, and a rendered log is
  // non-empty and parseable-looking (the bench compares these byte-wise).
  const std::string text = analysis::control_decisions_to_string(log);
  EXPECT_NE(text.find("act=m"), std::string::npos);
  EXPECT_NE(text.find("groups=sched,irq"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            log.size());
}

TEST(Controller, StaysQuietWhenWithinBudgets) {
  kernel::Cluster cluster;
  kernel::MachineConfig mcfg;
  mcfg.cpus = 1;
  mcfg.ktau.tracing = true;
  kernel::Machine& m = cluster.add_machine(mcfg);
  kernel::Task& idle = m.spawn("mostly-idle");
  idle.program = sleeper_program(4);
  m.launch(idle);

  clients::AdaptdConfig acfg;
  acfg.period = 100 * kMillisecond;
  acfg.until = 1 * kSecond;
  acfg.control = true;  // generous default budgets
  clients::Adaptd adaptd(m, acfg);

  cluster.run_until(1 * kSecond);

  using Action = analysis::ControlDecision::Action;
  ASSERT_FALSE(adaptd.decision_log().empty());
  for (const auto& d : adaptd.decision_log()) {
    EXPECT_EQ(d.action, Action::Hold);
    EXPECT_EQ(d.groups, meas::kAllGroups);
  }
  user::KtauHandle handle(m.proc());
  EXPECT_EQ(handle.groups(), meas::kAllGroups);
}

}  // namespace
}  // namespace ktau
