// Binary wire format for KTAU performance data.
//
// The kernel-side proc interface serializes profile/trace data into this
// format; user-space (libKtau) parses it back.  Keeping both codec halves in
// one translation unit is the moral equivalent of the shared kernel/user ABI
// header the real KTAU patch installs.
//
// The format is self-describing: every snapshot carries the event-id -> name
// table of the originating kernel's event registry, because event-mapping
// ids are assigned dynamically per kernel (first invocation order) and are
// NOT stable across nodes.  Cross-node analysis merges by name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ktau/events.hpp"
#include "ktau/profile.hpp"
#include "ktau/system.hpp"
#include "ktau/trace.hpp"
#include "sim/time.hpp"

namespace ktau::meas {

/// Malformed snapshot bytes: bad magic/version, truncated data, or an
/// element count inconsistent with the remaining buffer.  Derives from
/// std::runtime_error so pre-existing catch sites keep working; new code
/// should catch this type.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One event's metadata in a snapshot (decoded registry entry).
struct EventDesc {
  EventId id = 0;
  Group group = Group::Sched;
  std::string name;

  bool operator==(const EventDesc&) const = default;
};

/// Per-event profile row in a snapshot.
struct EventEntry {
  EventId id = 0;
  std::uint64_t count = 0;
  sim::Cycles incl = 0;
  sim::Cycles excl = 0;

  bool operator==(const EventEntry&) const = default;
};

struct AtomicEntry {
  EventId id = 0;
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;

  bool operator==(const AtomicEntry&) const = default;
};

/// (user event, kernel event) bridge row in a snapshot.
struct BridgeEntry {
  EventId user_event = 0;
  EventId kernel_event = 0;
  std::uint64_t count = 0;
  sim::Cycles incl = 0;
  sim::Cycles excl = 0;

  bool operator==(const BridgeEntry&) const = default;
};

/// Call-path (caller -> callee) edge row; parent == kCallpathRoot for
/// top-level activations.
struct EdgeEntry {
  EventId parent = 0;
  EventId child = 0;
  std::uint64_t count = 0;
  sim::Cycles incl = 0;
  sim::Cycles excl = 0;

  bool operator==(const EdgeEntry&) const = default;
};

/// One process's decoded profile.
struct TaskProfileData {
  Pid pid = 0;
  std::string name;
  std::vector<EventEntry> events;
  std::vector<AtomicEntry> atomics;
  std::vector<BridgeEntry> bridge;
  std::vector<EdgeEntry> edges;  // call-path rows (empty unless enabled)

  bool operator==(const TaskProfileData&) const = default;
};

/// Client-held position in a kernel's extraction stream (the two-call proc
/// protocol stays session-less: the *client* keeps the cursor and presents
/// it on each read; the kernel stores nothing per client).
struct ProfileCursor {
  /// Extraction epoch of the last read + 1; 0 means "never read" and makes
  /// the next read a full snapshot.
  std::uint64_t epoch = 0;
  /// Number of name-table entries already held; the kernel ships only
  /// entries [names, registry size).
  std::uint32_t names = 0;

  bool operator==(const ProfileCursor&) const = default;
};

/// A decoded profile snapshot — a full snapshot when `base_epoch` is 0,
/// otherwise only the rows changed since `base_epoch` plus the name-table
/// entries from `name_base` on.
struct ProfileSnapshot {
  sim::TimeNs timestamp = 0;
  sim::FreqHz cpu_freq = 0;  // for cycle <-> time conversion in analysis
  std::vector<EventDesc> events;
  std::vector<TaskProfileData> tasks;

  // Cursor framing (wire version 3).
  std::uint64_t base_epoch = 0;  // cursor the frame is relative to (0 = full)
  std::uint64_t next_epoch = 0;  // cursor epoch to present on the next read
  std::uint32_t name_base = 0;   // registry id of events[0] in a delta frame

  /// Name lookup; returns empty string_view for unknown ids.
  std::string_view event_name(EventId id) const;
  /// Group lookup; defaults to Sched for unknown ids.
  Group event_group(EventId id) const;
};

/// Folds one task's (user event × kernel event) bridge rows by user event:
/// out[user_event] = Σ conv(row.excl).  The per-row conversion order is part
/// of the contract — callers sum in their own unit (seconds, µs) and must
/// get bit-identical results to the loops this helper replaced.
template <typename Conv>
std::unordered_map<EventId, double> fold_kernel_within(
    const TaskProfileData& task, Conv conv) {
  std::unordered_map<EventId, double> out;
  for (const BridgeEntry& br : task.bridge) {
    out[br.user_event] += conv(br.excl);
  }
  return out;
}

/// A known hole in a trace record stream: `dropped` records with sequence
/// numbers [first_seq, first_seq + dropped) were overwritten in the ring
/// before a reader reached them.  `before` is the timestamp upper bound —
/// every lost record happened at or before it (the first surviving record's
/// stamp, or the frame timestamp when nothing survived) — which is what lets
/// merged timelines place the gap instead of silently closing over it.
struct TraceGap {
  sim::TimeNs before = 0;
  std::uint64_t dropped = 0;
  std::uint64_t first_seq = 0;

  bool operator==(const TraceGap&) const = default;
};

/// One process's decoded trace.
struct TaskTraceData {
  Pid pid = 0;
  std::string name;
  std::uint64_t dropped = 0;  // records lost to ring-buffer overwrite
  std::vector<TraceRecord> records;

  // Cursor framing (wire version 4).
  std::uint64_t base_seq = 0;  // cursor this frame was read against
  std::uint64_t next_seq = 0;  // cursor to present on the next read
  std::vector<TraceGap> gaps;  // typed loss records (one per v4 frame hole;
                               // accumulated by analysis trace merging)
};

struct TraceSnapshot {
  sim::TimeNs timestamp = 0;
  sim::FreqHz cpu_freq = 0;
  std::vector<EventDesc> events;
  std::vector<TaskTraceData> tasks;

  std::uint32_t name_base = 0;  // registry id of events[0]

  std::string_view event_name(EventId id) const;
};

/// Client-held position in a kernel's trace streams (the proc protocol
/// stays session-less: the *reader* keeps one sequence cursor per traced
/// task plus its name-table count, and presents them on each read; the
/// kernel stores nothing per client and the ring buffers are not consumed).
struct TraceCursor {
  /// Number of name-table entries already held; the kernel ships only
  /// entries [names, registry size).
  std::uint32_t names = 0;
  /// Per-task read positions: next sequence number this reader wants.
  /// A task absent here has never been seen (cursor 0: read everything
  /// the ring retains).
  std::unordered_map<Pid, std::uint64_t> seqs;

  std::uint64_t seq(Pid pid) const {
    const auto it = seqs.find(pid);
    return it == seqs.end() ? 0 : it->second;
  }
  bool known(Pid pid) const { return seqs.contains(pid); }

  /// Folds a decoded v4 frame into the cursor: per-task next_seq upserts
  /// and the name-table high-water mark.
  void advance(const TraceSnapshot& frame);
};

// -- encoding (kernel side) -------------------------------------------------

/// Input view of one task for serialization.
struct TaskSnapshotInput {
  Pid pid = 0;
  const std::string* name = nullptr;
  const TaskProfile* profile = nullptr;
};

/// Serializes a profile frame (wire version 3) relative to `cursor`: only
/// name-table entries from cursor.names on, only tasks dirty since
/// cursor.epoch, and within them only rows stamped >= cursor.epoch.  A zero
/// cursor serializes every task and every live row (a full snapshot).
/// `next_epoch` is the cursor epoch the client must present on its next
/// read (the kernel's current extraction epoch + 1).
std::vector<std::byte> encode_profile_delta(
    const EventRegistry& registry, sim::TimeNs timestamp, sim::FreqHz cpu_freq,
    const std::vector<TaskSnapshotInput>& tasks, ProfileCursor cursor,
    std::uint64_t next_epoch);

/// Input view of one task's trace read for serialization.  Reading the
/// ring (ProcKtau, against the client's cursor) is the caller's job; this
/// just encodes the result.
struct TaskTraceInput {
  Pid pid = 0;
  const std::string* name = nullptr;
  std::uint64_t dropped = 0;
  const std::vector<TraceRecord>* records = nullptr;
  std::uint64_t base_seq = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t first_lost_seq = 0;  // meaningful iff dropped > 0
};

/// Serializes a cursor-carrying trace frame (wire version 4): only
/// name-table entries from `name_base` on, and (by the caller's selection)
/// only tasks with new records or counted loss.  Records are consecutive —
/// sequences [next_seq - records.size(), next_seq) — so they carry no
/// per-record sequence field; loss is the typed {dropped, first_lost_seq}
/// pair per task.  With a zero cursor the caller passes every traced task
/// and name_base 0, and the frame carries everything the rings retain.
std::vector<std::byte> encode_trace_incremental(
    const EventRegistry& registry, sim::TimeNs timestamp, sim::FreqHz cpu_freq,
    const std::vector<TaskTraceInput>& tasks, std::uint32_t name_base);

// -- decoding (user side, used by libKtau) ----------------------------------

/// Parses a profile frame (wire version 3).  Throws SnapshotError on
/// malformed input or any other version; element counts are validated
/// against the remaining bytes before any allocation, so corrupt counts
/// cannot trigger huge reserves.
ProfileSnapshot decode_profile(const std::vector<std::byte>& bytes);

/// Parses a trace frame (wire version 4).  Throws SnapshotError on
/// malformed input or any other version (same allocation guarantees as
/// decode_profile).  Loss counts become typed TraceGap entries on the
/// affected tasks.
TraceSnapshot decode_trace(const std::vector<std::byte>& bytes);

/// Client-side reassembly of full profile state from a stream of frames —
/// the per-pid cursor cache behind libKtau's delta reads.  Zero-cursor
/// frames reset the state; delta frames upsert changed rows (delta rows
/// carry full cumulative values, not differences) keyed on (pid, row id)
/// and append name-table additions.
class ProfileAccumulator {
 public:
  /// Folds a decoded frame into the cached state and advances the cursor.
  void apply(const ProfileSnapshot& snap);

  /// Cursor to present on the next cursor-carrying read.
  ProfileCursor cursor() const { return cursor_; }

  /// The reassembled snapshot (equivalent in content to a full read).
  const ProfileSnapshot& merged() const { return merged_; }

  /// Drops all cached state; the next read becomes a full snapshot.
  void reset();

 private:
  void upsert_task(const TaskProfileData& incoming);

  ProfileSnapshot merged_;
  ProfileCursor cursor_;
  std::unordered_map<Pid, std::size_t> task_index_;
};

}  // namespace ktau::meas
