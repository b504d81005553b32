// Tests for the cursor-based trace data plane: TraceBuffer sequence
// cursors and typed loss, the wire-v4 trace codec, libKtau's trace cursor,
// the daemons' charge-only-what-shipped accounting, and the loss-aware
// frame merge (gap records through to the timeline view).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/render.hpp"
#include "analysis/traceexport.hpp"
#include "clients/ktaud.hpp"
#include "kernel/cluster.hpp"
#include "libktau/libktau.hpp"
#include "sim/rng.hpp"
#include "tau/profiler.hpp"

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

meas::TraceRecord rec(std::uint64_t seq) {
  return {seq, static_cast<meas::EventId>(seq % 7),
          seq % 2 == 0 ? meas::TraceType::Entry : meas::TraceType::Exit, 0};
}

// -- TraceBuffer cursor semantics -------------------------------------------

TEST(TraceCursorBuffer, DrainExactlyAtWraparoundBoundary) {
  meas::TraceBuffer buf(4);
  for (std::uint64_t i = 0; i < 4; ++i) buf.push(rec(i));

  // Cursor read at the exact moment the ring is full but nothing has been
  // overwritten yet: everything arrives, no loss.
  std::vector<meas::TraceRecord> out;
  meas::TraceDrain d = buf.read_from(0, out);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(d.next_seq, 4u);
  EXPECT_EQ(d.loss.dropped, 0u);

  // The next push overwrites sequence 0; a reader still at 0 loses exactly
  // that record, while a reader at the returned cursor is gapless.
  buf.push(rec(4));
  out.clear();
  d = buf.read_from(0, out);
  EXPECT_EQ(d.loss.dropped, 1u);
  EXPECT_EQ(d.loss.first_seq, 0u);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(out.front(), rec(1));

  out.clear();
  d = buf.read_from(4, out);
  EXPECT_EQ(d.loss.dropped, 0u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front(), rec(4));

  // Cursor exactly at oldest_seq() is the boundary case: no loss.
  out.clear();
  d = buf.read_from(buf.oldest_seq(), out);
  EXPECT_EQ(d.loss.dropped, 0u);
  EXPECT_EQ(out.size(), buf.capacity());
}

TEST(TraceCursorBuffer, LossRecordSpansMultipleOverwrites) {
  meas::TraceBuffer buf(4);
  for (std::uint64_t i = 0; i < 12; ++i) buf.push(rec(i));

  // Sequences 0..7 were overwritten (two full wraps); the loss record names
  // the whole span, not just the last overwrite.
  std::vector<meas::TraceRecord> out;
  meas::TraceDrain d = buf.read_from(0, out);
  EXPECT_EQ(d.loss.dropped, 8u);
  EXPECT_EQ(d.loss.first_seq, 0u);
  ASSERT_EQ(out.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], rec(8 + i));

  // A reader that had consumed up to 3 lost [3, 8).
  out.clear();
  d = buf.read_from(3, out);
  EXPECT_EQ(d.loss.dropped, 5u);
  EXPECT_EQ(d.loss.first_seq, 3u);
  EXPECT_EQ(out.size(), 4u);
}

TEST(TraceCursorBuffer, TwoReadersHoldIndependentCursors) {
  meas::TraceBuffer buf(8);
  for (std::uint64_t i = 0; i < 3; ++i) buf.push(rec(i));

  // Reader A consumes early, reader B late; both see every record exactly
  // once because the buffer keeps no reader state.
  std::vector<meas::TraceRecord> a, b;
  std::uint64_t ca = buf.read_from(0, a).next_seq;
  EXPECT_EQ(a.size(), 3u);

  for (std::uint64_t i = 3; i < 6; ++i) buf.push(rec(i));
  std::uint64_t cb = buf.read_from(0, b).next_seq;
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(cb, 6u);

  ca = buf.read_from(ca, a).next_seq;
  EXPECT_EQ(a.size(), 6u);
  EXPECT_EQ(ca, 6u);
  EXPECT_EQ(a, b);

  // Neither read consumed anything: a third reader still sees it all.
  std::vector<meas::TraceRecord> c;
  EXPECT_EQ(buf.read_from(0, c).loss.dropped, 0u);
  EXPECT_EQ(c, a);
}

TEST(TraceCursorBuffer, CursorPastEndReadsNothing) {
  meas::TraceBuffer buf(4);
  for (std::uint64_t i = 0; i < 2; ++i) buf.push(rec(i));
  // A cursor from "the future" (e.g. a stale client of a rebooted kernel)
  // must not underflow into garbage: nothing to read, no loss invented.
  std::vector<meas::TraceRecord> out;
  const meas::TraceDrain d = buf.read_from(9, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(d.loss.dropped, 0u);
  EXPECT_EQ(d.next_seq, 2u);
}

// -- wire v4 frames -----------------------------------------------------------

MachineConfig traced_config() {
  MachineConfig cfg;
  cfg.cpus = 1;
  cfg.ktau.charge_overhead = false;
  cfg.ktau.tracing = true;
  cfg.ktau.trace_capacity = 4096;
  return cfg;
}

Program busy_loop(int n) {
  for (int i = 0; i < n; ++i) {
    co_await Compute{5 * kMillisecond};
    co_await kernel::NullSyscall{};
  }
  co_await Compute{100 * sim::kSecond};  // stay live for the reads below
}

// A live traced machine plus two frames of the same end state, read while
// the traced task is still alive: a zero-cursor frame (everything the
// rings retain) and a frame read against the cursor of an earlier read
// (only what was appended since).  Reads are non-destructive, so the
// order does not matter.
struct TraceSample {
  Cluster cluster;
  Machine* m = nullptr;
  std::vector<std::byte> v4;
  std::vector<std::byte> from_cursor;

  TraceSample() {
    m = &cluster.add_machine(traced_config());
    Task& t = m->spawn("app");
    t.program = busy_loop(10);
    m->launch(t);
    cluster.run_until(20 * kMillisecond);
    meas::TraceCursor cursor;
    cursor.advance(meas::decode_trace(
        m->proc().trace_read(meas::Scope::All, {}, cursor)));
    cluster.run_until(500 * kMillisecond);
    v4 = m->proc().trace_read(meas::Scope::All, {}, meas::TraceCursor{});
    from_cursor = m->proc().trace_read(meas::Scope::All, {}, cursor);
  }
};

TEST(TraceWireV4, ZeroCursorFrameCarriesEveryRetainedRecord) {
  const TraceSample sample;
  const auto full = meas::decode_trace(sample.v4);
  const auto inc = meas::decode_trace(sample.from_cursor);

  EXPECT_EQ(full.name_base, 0u);
  EXPECT_EQ(full.events.size(), sample.m->ktau().registry().size());
  ASSERT_FALSE(full.tasks.empty());
  for (const auto& task : full.tasks) {
    const meas::TaskProfile* prof = sample.m->find_profile(task.pid);
    ASSERT_NE(prof, nullptr);
    std::vector<meas::TraceRecord> ring;
    prof->trace()->read_from(0, ring);
    EXPECT_EQ(task.records, ring);
    EXPECT_EQ(task.base_seq, 0u);
    EXPECT_EQ(task.next_seq, prof->trace()->total_pushed());
  }

  // The incremental frame of the same state ships each task's suffix past
  // the earlier cursor, and no name-table entries the cursor already held.
  EXPECT_GT(inc.name_base, 0u);
  bool app_suffix = false;
  for (const auto& task : inc.tasks) {
    const auto it = std::find_if(
        full.tasks.begin(), full.tasks.end(),
        [&](const meas::TaskTraceData& f) { return f.pid == task.pid; });
    ASSERT_NE(it, full.tasks.end());
    ASSERT_LE(task.base_seq, it->records.size());
    app_suffix |= task.name == "app" && task.base_seq > 0;
    EXPECT_EQ(task.next_seq, it->next_seq);
    const std::vector<meas::TraceRecord> suffix(
        it->records.begin() + static_cast<std::ptrdiff_t>(task.base_seq),
        it->records.end());
    EXPECT_EQ(task.records, suffix);
  }
  EXPECT_TRUE(app_suffix);
}

TEST(TraceWireV4, SecondReadShipsOnlyNewActivity) {
  TraceSample sample;
  KtauHandle handle(sample.m->proc());
  const meas::TraceSnapshot first =
      handle.get_trace_incremental(meas::Scope::All);
  EXPECT_FALSE(first.tasks.empty());
  EXPECT_FALSE(first.events.empty());
  const std::uint64_t first_bytes = handle.last_trace_wire_bytes();

  // Nothing ran in between: the next frame carries no tasks, no records,
  // no name-table additions — and is much smaller on the wire.
  const meas::TraceSnapshot second =
      handle.get_trace_incremental(meas::Scope::All);
  EXPECT_TRUE(second.tasks.empty());
  EXPECT_TRUE(second.events.empty());
  EXPECT_GT(second.name_base, 0u);
  EXPECT_LT(handle.last_trace_wire_bytes(), first_bytes / 2);
}

TEST(TraceWireV4, LossDecodesAsTypedGap) {
  Cluster cluster;
  auto cfg = traced_config();
  cfg.ktau.trace_capacity = 8;  // force overwrite
  Machine& m = cluster.add_machine(cfg);
  Task& t = m.spawn("app");
  t.program = busy_loop(20);
  m.launch(t);
  cluster.run_until(500 * kMillisecond);

  const auto frame = meas::decode_trace(
      m.proc().trace_read(meas::Scope::All, {}, meas::TraceCursor{}));
  bool saw_loss = false;
  for (const auto& task : frame.tasks) {
    if (task.dropped == 0) {
      EXPECT_TRUE(task.gaps.empty());
      continue;
    }
    saw_loss = true;
    ASSERT_EQ(task.gaps.size(), 1u);
    EXPECT_EQ(task.gaps[0].dropped, task.dropped);
    EXPECT_EQ(task.gaps[0].first_seq, task.base_seq);
    ASSERT_FALSE(task.records.empty());
    EXPECT_EQ(task.gaps[0].before, task.records.front().timestamp);
    // Conservation: shipped + lost spans every sequence ever pushed.
    EXPECT_EQ(task.records.size() + task.dropped, task.next_seq);
  }
  EXPECT_TRUE(saw_loss);

  // Loss is reported once: a read at the frame's cursor is gapless.
  meas::TraceCursor cursor;
  cursor.advance(frame);
  const auto next =
      meas::decode_trace(m.proc().trace_read(meas::Scope::All, {}, cursor));
  for (const auto& task : next.tasks) {
    EXPECT_EQ(task.dropped, 0u);
    EXPECT_TRUE(task.gaps.empty());
  }
}

TEST(TraceWireV4, TruncationAtEveryOffsetRejectedNotCrashing) {
  const TraceSample sample;
  ASSERT_NO_THROW(meas::decode_trace(sample.v4));
  for (std::size_t n = 0; n < sample.v4.size(); ++n) {
    std::vector<std::byte> cut(sample.v4.begin(), sample.v4.begin() + n);
    EXPECT_THROW(meas::decode_trace(cut), meas::SnapshotError) << n;
  }
}

TEST(TraceWireV4, CountBombsRejectedBeforeAllocation) {
  const TraceSample sample;
  for (std::size_t off = 0; off + 4 <= sample.v4.size(); ++off) {
    auto bomb = sample.v4;
    for (std::size_t i = 0; i < 4; ++i) bomb[off + i] = std::byte{0xFF};
    try {
      meas::decode_trace(bomb);  // surviving decode is fine; crashing isn't
    } catch (const meas::SnapshotError&) {
    }
  }
}

TEST(TraceWireV4, SeededByteFlipsNeverCrashEitherVersion) {
  const TraceSample sample;
  sim::Rng rng(0x7ACE);
  for (int iter = 0; iter < 400; ++iter) {
    // Both frame shapes: full state and an incremental frame.
    auto fuzz = iter % 2 == 0 ? sample.v4 : sample.from_cursor;
    const int flips = 1 + iter % 8;
    for (int f = 0; f < flips; ++f) {
      const auto pos = rng.next_below(fuzz.size());
      fuzz[pos] ^= std::byte{static_cast<unsigned char>(rng.uniform(1, 255))};
    }
    try {
      meas::decode_trace(fuzz);
    } catch (const meas::SnapshotError&) {
    }
  }
}

// -- libKtau cursor + extractor accounting ----------------------------------

/// Serialized size of a decoded wire-v4 trace frame, re-derived from the
/// frame layout: header, name-table additions, per-task cursor headers and
/// 21-byte records.
std::uint64_t v4_wire_size(const meas::TraceSnapshot& f) {
  std::uint64_t n = 4 + 4 + 8 + 8 + 4 + 4 + 4;  // header, table/task counts
  for (const auto& e : f.events) n += 4 + 4 + 4 + e.name.size();
  for (const auto& t : f.tasks) {
    n += 4 + 4 + t.name.size() + 4 * 8 + 4 + t.records.size() * 21;
  }
  return n;
}

TEST(TraceDrains, KtaudChargesOnlyWhatShipped) {
  // ktaud charges exactly the trace wire bytes it shipped: the serialized
  // cursor frames (records, typed loss, name-table additions, framing).
  Cluster cluster;
  Machine& m = cluster.add_machine(traced_config());
  Task& t = m.spawn("app");
  t.program = busy_loop(40);
  m.launch(t);
  clients::KtaudConfig kcfg;
  kcfg.period = 20 * kMillisecond;
  kcfg.until = 300 * kMillisecond;
  kcfg.collect_profiles = false;
  clients::Ktaud ktaud(m, kcfg);
  cluster.run_until(400 * kMillisecond);

  ASSERT_EQ(ktaud.traces().size(), ktaud.extractions());
  std::uint64_t shipped = 0, records = 0;
  for (const auto& frame : ktaud.traces()) {
    shipped += v4_wire_size(frame);
    for (const auto& task : frame.tasks) records += task.records.size();
  }
  EXPECT_GT(ktaud.total_records(), 0u);
  EXPECT_EQ(ktaud.total_records(), records);
  EXPECT_EQ(ktaud.total_extract_bytes(), shipped);
  // Clean tasks are skipped and the name table ships once, so a steady
  // period moves far less than the first (full) read did.
  EXPECT_LT(ktaud.last_extract_bytes(), v4_wire_size(ktaud.traces().front()));
}

TEST(TraceDrains, HandleCursorAdvancesAndResets) {
  TraceSample sample;
  KtauHandle handle(sample.m->proc());
  const auto first = handle.get_trace_incremental(meas::Scope::All);
  EXPECT_FALSE(first.tasks.empty());
  EXPECT_TRUE(handle.trace_cursor().known(first.tasks[0].pid));
  EXPECT_EQ(handle.trace_cursor().seq(first.tasks[0].pid),
            first.tasks[0].next_seq);

  // Resetting the cursor makes the next read a full read again.
  handle.reset_trace_cursor();
  const auto again = handle.get_trace_incremental(meas::Scope::All);
  ASSERT_EQ(again.tasks.size(), first.tasks.size());
  for (std::size_t i = 0; i < again.tasks.size(); ++i) {
    EXPECT_EQ(again.tasks[i].records, first.tasks[i].records);
  }
}

/// What two cursor reads of one short-lived traced task saw: the first at
/// 20 ms, the second after the task exited and was reaped.
struct AcrossExit {
  std::uint64_t first = 0;    // records shipped by the first read
  std::uint64_t shipped = 0;  // records shipped by both reads
  std::uint64_t dropped = 0;  // records counted lost by both reads
  std::uint64_t pushed = 0;   // records the task's ring ever took
};

AcrossExit read_across_exit(meas::Scope scope) {
  Cluster cluster;
  Machine& m = cluster.add_machine(traced_config());
  Task& t = m.spawn("shortlived");
  const meas::Pid pid = t.pid;
  t.program = [](void) -> Program {
    for (int i = 0; i < 10; ++i) {
      co_await Compute{5 * kMillisecond};
      co_await kernel::NullSyscall{};
    }
  }();
  m.launch(t);
  cluster.run_until(20 * kMillisecond);

  KtauHandle handle(m.proc());
  AcrossExit seen;
  const meas::Pid named[] = {pid};  // Scope::All ignores it
  auto read = [&] {
    const auto frame = handle.get_trace_incremental(scope, named);
    for (const auto& task : frame.tasks) {
      if (task.pid != pid) continue;
      seen.shipped += task.records.size();
      seen.dropped += task.dropped;
    }
  };
  read();
  seen.first = seen.shipped;

  cluster.run();  // the task finishes and is reaped
  EXPECT_EQ(m.find_profile(pid), nullptr);
  read();
  for (const auto& r : m.ktau().reaped()) {
    if (r.pid == pid) seen.pushed = r.profile.trace()->total_pushed();
  }
  return seen;
}

TEST(TraceDrains, ExitedTaskTailShipsOnNextRead) {
  // A traced task exits between two cursor reads: its ring moves to the
  // kernel's reaped set, and the next Scope::All read must still ship the
  // records it pushed after the first read — loss is counted, never silent.
  const AcrossExit seen = read_across_exit(meas::Scope::All);
  ASSERT_GT(seen.first, 0u);
  EXPECT_GT(seen.shipped, seen.first) << "the exited task's tail never shipped";
  ASSERT_GT(seen.pushed, 0u);
  EXPECT_EQ(seen.shipped + seen.dropped, seen.pushed);
}

TEST(TraceDrains, ExitedTaskTailShipsOnNamedPidRead) {
  // The same across a Scope::Other read naming the task's pid: once the
  // task is gone the pid resolves among the reaped tasks (pids are never
  // reused), so every record of the 10 iterations ships and none is lost.
  const AcrossExit seen = read_across_exit(meas::Scope::Other);
  ASSERT_GT(seen.first, 0u);
  EXPECT_EQ(seen.pushed, 30u);
  EXPECT_EQ(seen.shipped, 30u) << "the exited task's tail never shipped";
  EXPECT_EQ(seen.dropped, 0u);
}

// -- loss-aware merge and timeline -------------------------------------------

meas::TraceSnapshot frame_with(meas::Pid pid, std::uint64_t base,
                               std::vector<meas::TraceRecord> records,
                               std::uint64_t dropped = 0) {
  meas::TraceSnapshot f;
  f.timestamp = records.empty() ? 1000 : records.back().timestamp;
  f.cpu_freq = 1'000'000'000;
  f.events = {{0, meas::Group::Sched, "ev0"}, {1, meas::Group::Sched, "ev1"},
              {2, meas::Group::Sched, "ev2"}, {3, meas::Group::Sched, "ev3"},
              {4, meas::Group::Sched, "ev4"}, {5, meas::Group::Sched, "ev5"},
              {6, meas::Group::Sched, "ev6"}};
  meas::TaskTraceData t;
  t.pid = pid;
  t.name = "app";
  t.base_seq = base;
  t.dropped = dropped;
  if (dropped > 0) {
    t.gaps.push_back(meas::TraceGap{
        records.empty() ? f.timestamp : records.front().timestamp, dropped,
        base});
  }
  t.records = std::move(records);
  t.next_seq = base + dropped + t.records.size();
  f.tasks.push_back(std::move(t));
  return f;
}

TEST(TraceMerge, ConcatenatesFramesAndAccumulatesGaps) {
  const auto f1 = frame_with(7, 0, {rec(0), rec(1)});
  const auto f2 = frame_with(7, 2, {rec(4), rec(5)}, 2);  // lost seqs 2,3
  const auto merged = analysis::merge_trace_frames({f1, f2});

  ASSERT_EQ(merged.tasks.size(), 1u);
  const auto& t = merged.tasks[0];
  EXPECT_EQ(t.pid, 7u);
  ASSERT_EQ(t.records.size(), 4u);
  EXPECT_EQ(t.records[2], rec(4));
  EXPECT_EQ(t.dropped, 2u);
  ASSERT_EQ(t.gaps.size(), 1u);
  EXPECT_EQ(t.gaps[0].before, rec(4).timestamp);  // first surviving record
  EXPECT_EQ(t.gaps[0].dropped, 2u);
  EXPECT_EQ(t.gaps[0].first_seq, 2u);
  EXPECT_EQ(t.next_seq, 6u);
  EXPECT_EQ(merged.events.size(), 7u);  // unioned by id, not duplicated
}

TEST(TraceMerge, CursorDiscontinuitySynthesizesGap) {
  // Frame 2 starts past frame 1's end (a skipped extraction): the merge
  // must surface the hole instead of silently concatenating.
  const auto f1 = frame_with(7, 0, {rec(0), rec(1)});
  const auto f2 = frame_with(7, 5, {rec(5), rec(6)});
  const auto merged = analysis::merge_trace_frames({f1, f2});

  ASSERT_EQ(merged.tasks.size(), 1u);
  const auto& t = merged.tasks[0];
  EXPECT_EQ(t.dropped, 3u);  // seqs 2,3,4 unaccounted for
  ASSERT_EQ(t.gaps.size(), 1u);
  EXPECT_EQ(t.gaps[0].before, rec(5).timestamp);  // frame 2's first record
  EXPECT_EQ(t.gaps[0].dropped, 3u);
  EXPECT_EQ(t.gaps[0].first_seq, 2u);
  EXPECT_EQ(t.records.size(), 4u);
}

TEST(TraceMerge, ContiguousFramesMergeWithoutGaps) {
  // Frame 2 starts exactly at frame 1's cursor: plain concatenation.
  const auto f1 = frame_with(7, 0, {rec(0), rec(1)});
  const auto f2 = frame_with(7, 2, {rec(2), rec(3)});
  const auto merged = analysis::merge_trace_frames({f1, f2});
  ASSERT_EQ(merged.tasks.size(), 1u);
  EXPECT_EQ(merged.tasks[0].records.size(), 4u);
  EXPECT_TRUE(merged.tasks[0].gaps.empty());
  EXPECT_EQ(merged.tasks[0].dropped, 0u);
  EXPECT_EQ(merged.tasks[0].next_seq, 4u);
}

TEST(TraceTimeline, GapRendersAsLossMarker) {
  const auto snap = frame_with(7, 2, {rec(4), rec(5)}, 2);
  // Empty user side: an idle profiler on a quiet machine records nothing.
  Cluster cluster;
  Machine& m = cluster.add_machine(traced_config());
  Task& idle = m.spawn("idle");
  tau::Profiler tau_prof(m, idle);
  const auto events = analysis::merge_timeline(snap, 7, tau_prof);
  std::size_t gap_events = 0;
  for (const auto& e : events) {
    if (e.is_gap) {
      ++gap_events;
      EXPECT_EQ(e.lost, 2u);
      EXPECT_EQ(e.timestamp, snap.tasks[0].records.front().timestamp);
    }
  }
  EXPECT_EQ(gap_events, 1u);
  // The gap's stamp is an upper bound, so it sorts ahead of the first
  // surviving record, which carries the same stamp.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[0].is_gap);
  EXPECT_FALSE(events[1].is_gap);
  EXPECT_EQ(events[1].timestamp, events[0].timestamp);

  std::ostringstream os;
  analysis::render_timeline(os, "with loss", events);
  EXPECT_NE(os.str().find("2 records lost (ring overwrite)"),
            std::string::npos);

  // Gapless traces render exactly as before — no marker line.
  const auto clean = frame_with(7, 0, {rec(0), rec(1)});
  std::ostringstream os2;
  analysis::render_timeline(os2, "clean",
                            analysis::merge_timeline(clean, 7, tau_prof));
  EXPECT_EQ(os2.str().find("records lost"), std::string::npos);
}

}  // namespace
}  // namespace ktau
