// Tests for the /proc/ktau protocol, snapshot codecs, libKtau retrieval
// modes, the ASCII round trip, kernel control, and trace extraction.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

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

TEST(ProcKtau, ProfileSizeThenReadSucceeds) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet());
  Task& t = m.spawn("app");
  t.program = busy_loop(10);
  m.launch(t);
  cluster.run_until(20 * kMillisecond);

  const std::size_t size =
      m.proc().profile_size(meas::Scope::All, {}, meas::ProfileCursor{});
  EXPECT_GT(size, 0u);
  std::vector<std::byte> buf;
  ASSERT_TRUE(m.proc().profile_read(meas::Scope::All, {},
                                    meas::ProfileCursor{}, size, buf));
  EXPECT_EQ(buf.size(), size);  // nothing changed in between
  const auto snap = meas::decode_profile(buf);
  EXPECT_GT(snap.tasks.size(), 0u);
}

TEST(ProcKtau, ReadFailsWhenDataOutgrowsCapacity) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet());
  Task& t = m.spawn("app");
  t.program = busy_loop(4);
  m.launch(t);
  cluster.run_until(8 * kMillisecond);

  const std::size_t size =
      m.proc().profile_size(meas::Scope::All, {}, meas::ProfileCursor{});
  // Data grows (more events recorded) between size and read: the
  // session-less protocol reports failure instead of truncating.
  cluster.run_until(30 * kMillisecond);
  std::vector<std::byte> buf;
  const bool ok = m.proc().profile_read(meas::Scope::All, {},
                                        meas::ProfileCursor{}, size, buf);
  if (!ok) {
    EXPECT_TRUE(buf.empty());
    // The retry loop in libKtau handles exactly this:
    KtauHandle handle(m.proc());
    const auto snap = handle.get_profile(meas::Scope::All);
    EXPECT_GT(snap.tasks.size(), 0u);
  } else {
    // Snapshot sizes can coincide; the protocol then succeeds.  Either
    // outcome is legal; decoding must work.
    EXPECT_NO_THROW(meas::decode_profile(buf));
  }
}

TEST(ProcKtau, SpawnBetweenSizeAndReadExercisesRetryLoop) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet(2));
  Task& t = m.spawn("app");
  t.program = busy_loop(10);
  m.launch(t);
  cluster.run_until(10 * kMillisecond);

  const std::size_t size =
      m.proc().profile_size(meas::Scope::All, {}, meas::ProfileCursor{});
  // A task spawns and runs between the size probe and the read: the frame
  // outgrows the stale capacity and the session-less protocol rejects it.
  Task& late = m.spawn("latecomer");
  late.program = busy_loop(10);
  m.launch(late);
  cluster.run_until(20 * kMillisecond);
  std::vector<std::byte> buf;
  ASSERT_FALSE(m.proc().profile_read(meas::Scope::All, {},
                                     meas::ProfileCursor{}, size, buf));
  EXPECT_TRUE(buf.empty());

  // libKtau's size/read retry loop absorbs exactly this race.
  KtauHandle handle(m.proc());
  const auto snap = handle.get_profile(meas::Scope::All);
  bool has_late = false;
  for (const auto& task : snap.tasks) {
    if (task.name == "latecomer") has_late = true;
  }
  EXPECT_TRUE(has_late);
}

TEST(ProcKtau, ExitBetweenSizeAndReadKeepsOtherScopeConsistent) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet(2));
  Task& t = m.spawn("shortlived");
  const meas::Pid pids[] = {t.pid};  // t may be reaped below; keep the pid
  t.program = busy_loop(3);
  m.launch(t);
  cluster.run_until(5 * kMillisecond);
  const std::size_t size =
      m.proc().profile_size(meas::Scope::Other, pids, meas::ProfileCursor{});
  EXPECT_GT(size, 0u);
  cluster.run();  // task exits and is reaped between size and read

  // Scope::Other skips reaped tasks, so the frame shrank: the read still
  // succeeds (capacity is an upper bound) but the pid is gone.  The retry
  // loop in libKtau must also terminate on this shrink path.
  std::vector<std::byte> buf;
  ASSERT_TRUE(m.proc().profile_read(meas::Scope::Other, pids,
                                    meas::ProfileCursor{}, size, buf));
  EXPECT_LE(buf.size(), size);
  const auto snap = meas::decode_profile(buf);
  EXPECT_TRUE(snap.tasks.empty());
  KtauHandle handle(m.proc());
  EXPECT_TRUE(handle.get_profile(meas::Scope::Other, pids).tasks.empty());
  // Scope::All still serves the reaped task's totals (Figure 7 needs them).
  bool has_dead = false;
  for (const auto& task : handle.get_profile(meas::Scope::All).tasks) {
    if (task.name == "shortlived") has_dead = true;
  }
  EXPECT_TRUE(has_dead);
}

TEST(ProcKtau, CursorReadFailureDoesNotAdvanceEpoch) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet());
  Task& t = m.spawn("app");
  t.program = busy_loop(10);
  m.launch(t);
  cluster.run_until(20 * kMillisecond);

  const std::uint64_t epoch0 = m.ktau().extraction_epoch();
  std::vector<std::byte> buf;
  ASSERT_FALSE(
      m.proc().profile_read(meas::Scope::All, {}, meas::ProfileCursor{},
                            /*capacity=*/1, buf));
  EXPECT_EQ(m.ktau().extraction_epoch(), epoch0);  // failed read: no advance

  const std::size_t size =
      m.proc().profile_size(meas::Scope::All, {}, meas::ProfileCursor{});
  ASSERT_TRUE(m.proc().profile_read(meas::Scope::All, {},
                                    meas::ProfileCursor{}, size, buf));
  EXPECT_EQ(m.ktau().extraction_epoch(), epoch0 + 1);
  const auto snap = meas::decode_profile(buf);
  EXPECT_EQ(snap.base_epoch, 0u);
  EXPECT_EQ(snap.next_epoch, epoch0 + 1);
}

TEST(ProcKtau, SpawnBetweenCursorSizeAndReadExercisesDeltaRetryLoop) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet(2));
  Task& t = m.spawn("app");
  t.program = busy_loop(10);
  m.launch(t);
  cluster.run_until(10 * kMillisecond);

  const std::size_t size =
      m.proc().profile_size(meas::Scope::All, {}, meas::ProfileCursor{});
  Task& late = m.spawn("latecomer");
  late.program = busy_loop(10);
  m.launch(late);
  cluster.run_until(20 * kMillisecond);
  std::vector<std::byte> buf;
  ASSERT_FALSE(m.proc().profile_read(meas::Scope::All, {},
                                     meas::ProfileCursor{}, size, buf));

  KtauHandle handle(m.proc());
  const auto& merged = handle.get_profile_delta(meas::Scope::All);
  bool has_late = false;
  for (const auto& task : merged.tasks) {
    if (task.name == "latecomer") has_late = true;
  }
  EXPECT_TRUE(has_late);
}

TEST(ProcKtau, SelfScopeReturnsOnlyCaller) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet(2));
  Task& a = m.spawn("a");
  Task& b = m.spawn("b");
  a.program = busy_loop(10);
  b.program = busy_loop(10);
  m.launch(a);
  m.launch(b);
  cluster.run_until(20 * kMillisecond);

  KtauHandle handle(m.proc());
  const auto snap = handle.get_self_profile(a.pid);
  ASSERT_EQ(snap.tasks.size(), 1u);
  EXPECT_EQ(snap.tasks[0].pid, a.pid);
  EXPECT_EQ(snap.tasks[0].name, "a");
}

TEST(ProcKtau, OtherScopeReturnsRequestedPids) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet(2));
  Task& a = m.spawn("a");
  Task& b = m.spawn("b");
  Task& c = m.spawn("c");
  for (Task* t : {&a, &b, &c}) {
    t->program = busy_loop(5);
    m.launch(*t);
  }
  cluster.run_until(10 * kMillisecond);

  KtauHandle handle(m.proc());
  const meas::Pid pids[] = {a.pid, c.pid};
  const auto snap = handle.get_profile(meas::Scope::Other, pids);
  ASSERT_EQ(snap.tasks.size(), 2u);
  EXPECT_EQ(snap.tasks[0].pid, a.pid);
  EXPECT_EQ(snap.tasks[1].pid, c.pid);
  // Unknown pids are skipped, not errors.
  const meas::Pid bogus[] = {9999};
  EXPECT_TRUE(handle.get_profile(meas::Scope::Other, bogus).tasks.empty());
}

TEST(ProcKtau, AllScopeIncludesSwapperAndReapedTasks) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet(2));
  Task& t = m.spawn("shortlived");
  t.program = busy_loop(2);
  m.launch(t);
  cluster.run();  // task exits

  KtauHandle handle(m.proc());
  const auto snap = handle.get_profile(meas::Scope::All);
  bool has_swapper = false, has_dead = false;
  for (const auto& task : snap.tasks) {
    if (task.name == "swapper/0") has_swapper = true;
    if (task.name == "shortlived") has_dead = true;
  }
  EXPECT_TRUE(has_swapper);
  EXPECT_TRUE(has_dead);  // Figure 7 needs exited processes' activity
}

TEST(ProcKtau, ControlChangesRuntimeGroups) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet());
  KtauHandle handle(m.proc());
  EXPECT_EQ(handle.groups(), meas::kAllGroups);
  handle.set_groups(meas::mask_of(meas::Group::Sched));
  EXPECT_EQ(handle.groups(), meas::mask_of(meas::Group::Sched));

  // Only scheduler events are recorded now.
  Task& t = m.spawn("app");
  t.program = busy_loop(5);
  m.launch(t);
  cluster.run();
  const auto& prof = m.ktau().reaped()[0].profile;
  const auto getpid_ev = m.ktau().registry().find("sys_getpid");
  EXPECT_EQ(prof.metrics(getpid_ev).count, 0u);
}

TEST(ProcKtau, OverheadReportTracksProbeCosts) {
  Cluster cluster;
  MachineConfig cfg;
  cfg.cpus = 1;
  cfg.ktau.charge_overhead = true;
  Machine& m = cluster.add_machine(cfg);
  Task& t = m.spawn("app");
  // The report samples explicit probes only (hidden pairs are charged, not
  // sampled), so the run must be long enough for the +-25-cycle bands to
  // stay at least 4 standard errors wide.
  t.program = busy_loop(2000);
  m.launch(t);
  cluster.run();

  KtauHandle handle(m.proc());
  const auto rep = handle.overhead();
  EXPECT_GT(rep.start_count, 2000u);
  EXPECT_GT(rep.stop_count, 2000u);
  EXPECT_EQ(rep.start_count, rep.stop_count);
  // Table 4 band: start mean ~244 cycles (min 160), stop ~295 (min 214).
  EXPECT_NEAR(rep.start_mean, 244.4, 25.0);
  EXPECT_GE(rep.start_min, 160.0);
  EXPECT_NEAR(rep.stop_mean, 295.3, 25.0);
  EXPECT_GE(rep.stop_min, 214.0);
  EXPECT_GT(rep.total_cycles, 0u);
}

TEST(ProcKtau, TraceReadDrainsBuffers) {
  Cluster cluster;
  auto cfg = quiet();
  cfg.ktau.tracing = true;
  cfg.ktau.trace_capacity = 1024;
  Machine& m = cluster.add_machine(cfg);
  Task& t = m.spawn("app");
  t.program = busy_loop(10);
  m.launch(t);
  cluster.run_until(30 * kMillisecond);

  auto records = [](const meas::TraceSnapshot& trace) {
    std::size_t total = 0;
    for (const auto& task : trace.tasks) total += task.records.size();
    return total;
  };
  KtauHandle handle(m.proc());
  const std::size_t total1 =
      records(handle.get_trace_incremental(meas::Scope::All));
  EXPECT_GT(total1, 0u);

  // The handle's cursor drains: an immediate second read returns nothing
  // new.  The rings themselves are not consumed — a fresh reader still
  // gets every record.
  EXPECT_EQ(records(handle.get_trace_incremental(meas::Scope::All)), 0u);
  KtauHandle fresh(m.proc());
  EXPECT_EQ(records(fresh.get_trace_incremental(meas::Scope::All)), total1);
}

TEST(ProcKtau, TraceRecordsAreBalancedAndOrdered) {
  Cluster cluster;
  auto cfg = quiet();
  cfg.ktau.tracing = true;
  cfg.ktau.trace_capacity = 1 << 14;
  Machine& m = cluster.add_machine(cfg);
  Task& t = m.spawn("app");
  t.program = busy_loop(20);
  m.launch(t);
  cluster.run();

  KtauHandle handle(m.proc());
  // Scope::All trace reads cover the exited app as well as the swapper.
  const auto trace = handle.get_trace_incremental(meas::Scope::All);
  bool has_app = false;
  for (const auto& task : trace.tasks) {
    has_app |= task.name == "app" && !task.records.empty();
    sim::TimeNs prev = 0;
    for (const auto& rec : task.records) {
      EXPECT_GE(rec.timestamp, prev);
      prev = rec.timestamp;
    }
  }
  EXPECT_TRUE(has_app);
}

TEST(LibKtau, AsciiRoundTripPreservesEverything) {
  Cluster cluster;
  auto cfg = quiet(2);
  Machine& m = cluster.add_machine(cfg);
  Task& t = m.spawn("app");
  t.program = busy_loop(10);
  m.launch(t);
  cluster.run();

  KtauHandle handle(m.proc());
  const auto snap = handle.get_profile(meas::Scope::All);
  const std::string text = user::profile_to_ascii(snap);
  const auto back = user::profile_from_ascii(text);

  EXPECT_EQ(back.timestamp, snap.timestamp);
  EXPECT_EQ(back.cpu_freq, snap.cpu_freq);
  ASSERT_EQ(back.events.size(), snap.events.size());
  for (std::size_t i = 0; i < snap.events.size(); ++i) {
    EXPECT_EQ(back.events[i].id, snap.events[i].id);
    EXPECT_EQ(back.events[i].name, snap.events[i].name);
    EXPECT_EQ(meas::mask_of(back.events[i].group),
              meas::mask_of(snap.events[i].group));
  }
  ASSERT_EQ(back.tasks.size(), snap.tasks.size());
  for (std::size_t i = 0; i < snap.tasks.size(); ++i) {
    EXPECT_EQ(back.tasks[i].pid, snap.tasks[i].pid);
    EXPECT_EQ(back.tasks[i].name, snap.tasks[i].name);
    ASSERT_EQ(back.tasks[i].events.size(), snap.tasks[i].events.size());
    for (std::size_t j = 0; j < snap.tasks[i].events.size(); ++j) {
      EXPECT_EQ(back.tasks[i].events[j].count, snap.tasks[i].events[j].count);
      EXPECT_EQ(back.tasks[i].events[j].incl, snap.tasks[i].events[j].incl);
      EXPECT_EQ(back.tasks[i].events[j].excl, snap.tasks[i].events[j].excl);
    }
    ASSERT_EQ(back.tasks[i].atomics.size(), snap.tasks[i].atomics.size());
    for (std::size_t j = 0; j < snap.tasks[i].atomics.size(); ++j) {
      EXPECT_DOUBLE_EQ(back.tasks[i].atomics[j].sum,
                       snap.tasks[i].atomics[j].sum);
    }
  }
}

TEST(LibKtau, AsciiParserRejectsGarbage) {
  EXPECT_THROW(user::profile_from_ascii(""), std::runtime_error);
  EXPECT_THROW(user::profile_from_ascii("not a profile"), std::runtime_error);
  EXPECT_THROW(user::profile_from_ascii("#KTAU-PROFILE v1\nbogus 1\n"),
               std::runtime_error);
}

TEST(LibKtau, PrintProfileProducesReadableOutput) {
  Cluster cluster;
  Machine& m = cluster.add_machine(quiet());
  Task& t = m.spawn("app");
  t.program = busy_loop(5);
  m.launch(t);
  cluster.run();

  KtauHandle handle(m.proc());
  const auto snap = handle.get_profile(meas::Scope::All);
  std::ostringstream os;
  user::print_profile(os, snap);
  const std::string out = os.str();
  EXPECT_NE(out.find("KTAU profile"), std::string::npos);
  EXPECT_NE(out.find("sys_getpid"), std::string::npos);
  EXPECT_NE(out.find("app"), std::string::npos);
}

TEST(SnapshotCodec, DecodeRejectsCorruptData) {
  std::vector<std::byte> junk(16, std::byte{0x42});
  EXPECT_THROW(meas::decode_profile(junk), std::runtime_error);
  EXPECT_THROW(meas::decode_trace(junk), std::runtime_error);
  std::vector<std::byte> empty;
  EXPECT_THROW(meas::decode_profile(empty), std::runtime_error);
  // SnapshotError derives std::runtime_error, so both catch styles work.
  EXPECT_THROW(meas::decode_profile(junk), meas::SnapshotError);
}

// A small but fully populated profile + trace serialization to corrupt:
// a zero-cursor profile frame (full state), a real delta frame read
// against the cursor that frame returned, and a zero-cursor trace frame.
struct SampleBytes {
  std::vector<std::byte> profile;
  std::vector<std::byte> delta;
  std::vector<std::byte> trace;

  SampleBytes() {
    Cluster cluster;
    auto cfg = quiet();
    cfg.ktau.tracing = true;
    Machine& m = cluster.add_machine(cfg);
    Task& t = m.spawn("app");
    t.program = busy_loop(10);
    m.launch(t);
    cluster.run_until(20 * kMillisecond);
    profile = read(m, meas::ProfileCursor{});
    const auto full = meas::decode_profile(profile);
    cluster.run();
    delta = read(m, {full.next_epoch,
                     static_cast<std::uint32_t>(full.events.size())});
    trace = m.proc().trace_read(meas::Scope::All, {}, meas::TraceCursor{});
  }

  static std::vector<std::byte> read(Machine& m, meas::ProfileCursor cursor) {
    const std::size_t size =
        m.proc().profile_size(meas::Scope::All, {}, cursor);
    std::vector<std::byte> out;
    EXPECT_TRUE(m.proc().profile_read(meas::Scope::All, {}, cursor, size, out));
    return out;
  }
};

TEST(SnapshotCodec, ZeroCursorAndDeltaFramesCarryTheirCursors) {
  // A zero-cursor frame is a full snapshot framed at cursor 0; the delta
  // frame read against the cursor it returned is framed at that cursor and
  // carries the rows that changed since.
  const SampleBytes sample;
  const auto full = meas::decode_profile(sample.profile);
  const auto delta = meas::decode_profile(sample.delta);

  EXPECT_EQ(full.base_epoch, 0u);
  EXPECT_EQ(full.name_base, 0u);
  EXPECT_GT(full.next_epoch, 0u);
  EXPECT_FALSE(full.events.empty());
  EXPECT_FALSE(full.tasks.empty());

  EXPECT_EQ(delta.base_epoch, full.next_epoch);
  EXPECT_EQ(delta.name_base, full.events.size());
  EXPECT_GT(delta.next_epoch, delta.base_epoch);
  EXPECT_GT(delta.timestamp, full.timestamp);
  ASSERT_FALSE(delta.tasks.empty());
  bool app_rows = false;
  for (const auto& t : delta.tasks) {
    if (t.name == "app") app_rows = !t.events.empty();
  }
  EXPECT_TRUE(app_rows);
}

TEST(SnapshotCodec, Version2FramesRejectedAsUnsupported) {
  // Cursor-less version-2 frames are gone from the protocol; a frame that
  // claims version 2 fails typed, for either plane.
  const SampleBytes sample;
  const std::uint32_t v2 = 2;
  auto profile = sample.profile;
  std::memcpy(profile.data() + 4, &v2, sizeof v2);
  EXPECT_THROW(meas::decode_profile(profile), meas::SnapshotError);
  auto trace = sample.trace;
  std::memcpy(trace.data() + 4, &v2, sizeof v2);
  EXPECT_THROW(meas::decode_trace(trace), meas::SnapshotError);
}

TEST(SnapshotCodec, DeltaFrameTruncationAtEveryOffsetRejected) {
  const SampleBytes sample;
  ASSERT_NO_THROW(meas::decode_profile(sample.delta));
  for (std::size_t n = 0; n < sample.delta.size(); ++n) {
    std::vector<std::byte> cut(sample.delta.begin(),
                               sample.delta.begin() + n);
    EXPECT_THROW(meas::decode_profile(cut), meas::SnapshotError) << n;
  }
}

TEST(SnapshotCodec, DeltaFrameCountBombsRejectedBeforeAllocation) {
  const SampleBytes sample;
  for (std::size_t off = 0; off + 4 <= sample.delta.size(); ++off) {
    auto bomb = sample.delta;
    for (std::size_t i = 0; i < 4; ++i) bomb[off + i] = std::byte{0xFF};
    try {
      meas::decode_profile(bomb);
    } catch (const meas::SnapshotError&) {
    }
  }
}

TEST(SnapshotCodec, DeltaFrameSeededByteFlipsNeverCrash) {
  const SampleBytes sample;
  sim::Rng rng(0xBEEF);
  for (int iter = 0; iter < 400; ++iter) {
    auto fuzz = sample.delta;
    const int flips = 1 + iter % 8;
    for (int f = 0; f < flips; ++f) {
      const auto pos = rng.next_below(fuzz.size());
      fuzz[pos] ^= std::byte{static_cast<unsigned char>(rng.uniform(1, 255))};
    }
    try {
      meas::decode_profile(fuzz);
    } catch (const meas::SnapshotError&) {
    }
  }
}

TEST(SnapshotCodec, TruncationAtEveryOffsetRejectedNotCrashing) {
  const SampleBytes sample;
  ASSERT_NO_THROW(meas::decode_profile(sample.profile));
  ASSERT_NO_THROW(meas::decode_trace(sample.trace));
  // The codecs consume every byte they wrote, so any strict prefix must be
  // detected as truncated — with a typed error, never a crash or an
  // out-of-bounds read (the ASan CI job leans on this test).
  for (std::size_t n = 0; n < sample.profile.size(); ++n) {
    std::vector<std::byte> cut(sample.profile.begin(),
                               sample.profile.begin() + n);
    EXPECT_THROW(meas::decode_profile(cut), meas::SnapshotError) << n;
  }
  for (std::size_t n = 0; n < sample.trace.size(); ++n) {
    std::vector<std::byte> cut(sample.trace.begin(),
                               sample.trace.begin() + n);
    EXPECT_THROW(meas::decode_trace(cut), meas::SnapshotError) << n;
  }
}

TEST(SnapshotCodec, CountBombsRejectedBeforeAllocation) {
  // Overwriting any 4 adjacent bytes with 0xFF plants a ~4-billion element
  // count somewhere; the decoder must reject it against the bytes actually
  // remaining instead of reserving gigabytes (the regression this PR fixes).
  const SampleBytes sample;
  for (std::size_t off = 0; off + 4 <= sample.profile.size(); ++off) {
    auto bomb = sample.profile;
    for (std::size_t i = 0; i < 4; ++i) bomb[off + i] = std::byte{0xFF};
    try {
      meas::decode_profile(bomb);  // surviving decode is fine; crashing isn't
    } catch (const meas::SnapshotError&) {
    }
  }
}

TEST(SnapshotCodec, SeededByteFlipsNeverCrash) {
  const SampleBytes sample;
  sim::Rng rng(0xC0FFEE);
  for (int iter = 0; iter < 400; ++iter) {
    auto fuzz = sample.profile;
    const int flips = 1 + iter % 8;
    for (int f = 0; f < flips; ++f) {
      const auto pos = rng.next_below(fuzz.size());
      fuzz[pos] ^= std::byte{static_cast<unsigned char>(rng.uniform(1, 255))};
    }
    try {
      meas::decode_profile(fuzz);
    } catch (const meas::SnapshotError&) {
    }
  }
}

TEST(TraceBuffer, LossyRingDropsOldest) {
  meas::TraceBuffer buf(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    buf.push({i, static_cast<meas::EventId>(i), meas::TraceType::Entry, 0});
  }
  EXPECT_EQ(buf.total_pushed(), 10u);
  std::vector<meas::TraceRecord> out;
  const meas::TraceDrain d = buf.read_from(0, out);
  EXPECT_EQ(d.loss.dropped, 6u);
  ASSERT_EQ(out.size(), 4u);
  // The newest four survive, in order.
  EXPECT_EQ(out[0].timestamp, 6u);
  EXPECT_EQ(out[3].timestamp, 9u);
  // Loss is reported once: a read at the returned cursor sees none.
  out.clear();
  EXPECT_EQ(buf.read_from(d.next_seq, out).loss.dropped, 0u);
  EXPECT_TRUE(out.empty());
}

TEST(TraceBuffer, ZeroCapacityRejected) {
  EXPECT_THROW(meas::TraceBuffer(0), std::invalid_argument);
}

TEST(GroupParsing, ParsesBootOptionStyleLists) {
  EXPECT_EQ(meas::parse_groups("all"), meas::kAllGroups);
  EXPECT_EQ(meas::parse_groups("none"), meas::kNoGroups);
  EXPECT_EQ(meas::parse_groups(""), meas::kNoGroups);
  EXPECT_EQ(meas::parse_groups("sched"),
            meas::mask_of(meas::Group::Sched));
  EXPECT_EQ(meas::parse_groups("sched,net"),
            meas::Group::Sched | meas::Group::Net);
  // Case-insensitive, whitespace tolerant.
  EXPECT_EQ(meas::parse_groups(" Sched , NET "),
            meas::Group::Sched | meas::Group::Net);
  EXPECT_EQ(meas::parse_groups("irq,bh,syscall"),
            (meas::Group::Irq | meas::Group::BottomHalf) |
                meas::mask_of(meas::Group::Syscall));
  EXPECT_THROW(meas::parse_groups("sched,bogus"), std::invalid_argument);
}

TEST(GroupParsing, FormatRoundTrips) {
  EXPECT_EQ(meas::format_groups(meas::kAllGroups), "all");
  EXPECT_EQ(meas::format_groups(meas::kNoGroups), "none");
  const auto mask = meas::Group::Sched | meas::Group::Net;
  EXPECT_EQ(meas::format_groups(mask), "sched,net");
  EXPECT_EQ(meas::parse_groups(meas::format_groups(mask)), mask);
}

TEST(GroupParsing, DrivesRuntimeControl) {
  // The boot-option path: configure a machine with only the scheduler
  // group enabled via the textual form.
  Cluster cluster;
  auto cfg = quiet();
  cfg.ktau.boot_enabled = meas::parse_groups("sched");
  Machine& m = cluster.add_machine(cfg);
  Task& t = m.spawn("app");
  t.program = busy_loop(5);
  m.launch(t);
  cluster.run();
  const auto& prof = m.ktau().reaped()[0].profile;
  const auto getpid_ev = m.ktau().registry().find("sys_getpid");
  EXPECT_EQ(prof.metrics(getpid_ev).count, 0u);  // syscall group off
}

}  // namespace
}  // namespace ktau
