// Per-process circular trace buffer (paper §4.2).
//
// When tracing is enabled, each process owns a fixed-size circular buffer of
// trace records.  The buffer is deliberately lossy: "trace data may be lost
// if the buffer is not read fast enough by user-space applications or
// daemons".  New records overwrite the oldest retained records; every record
// carries a monotonic per-buffer sequence number, so loss is *counted*, not
// silent: a reader that falls behind learns exactly how many records it
// missed and where the gap sits in the event stream (the LTTng consumer
// protocol's explicit loss events — see DESIGN.md §10).
//
// Reads are non-destructive cursor reads (read_from): each reader holds its
// own sequence cursor client-side and the buffer keeps no per-reader state,
// so multiple readers with independent cursors each see every retained
// record.
#pragma once

#include <cstdint>
#include <vector>

#include "ktau/events.hpp"
#include "sim/time.hpp"

namespace ktau::meas {

enum class TraceType : std::uint8_t {
  Entry = 0,
  Exit = 1,
  Atomic = 2,
};

struct TraceRecord {
  sim::TimeNs timestamp = 0;
  EventId event = kNoEventId;
  TraceType type = TraceType::Entry;
  std::uint64_t value = 0;  // atomic-event payload (e.g. packet size)

  bool operator==(const TraceRecord&) const = default;
};

/// Typed loss report for one read: `dropped` records with sequence numbers
/// [first_seq, first_seq + dropped) were overwritten before the reader's
/// cursor reached them.  dropped == 0 means a gapless read.
struct TraceLoss {
  std::uint64_t dropped = 0;
  std::uint64_t first_seq = 0;

  bool operator==(const TraceLoss&) const = default;
};

/// Result of one cursor read: the records themselves go to the caller's
/// vector; this carries the cursor to present next plus the loss report.
struct TraceDrain {
  std::uint64_t next_seq = 0;  // cursor for the reader's next read
  TraceLoss loss;
};

class TraceBuffer {
 public:
  /// Creates a buffer holding at most `capacity` records.  Capacity 0 is
  /// rejected (a traced process always has a real buffer).
  explicit TraceBuffer(std::size_t capacity);

  /// Appends a record with sequence number next_seq(), overwriting the
  /// oldest retained record when full.
  void push(const TraceRecord& rec);

  /// Changes the ring capacity in place, preserving sequence accounting:
  /// retained records keep their sequence numbers, next_seq() is unchanged,
  /// and readers' cursors stay valid.  Growing retains everything; shrinking
  /// keeps the *newest* `capacity` records and counts the discarded older
  /// ones exactly like ring overwrite — they surface as typed loss on the
  /// next read (LTTng-style counted loss, never silent).  Capacity 0 is
  /// rejected.  Returns the number of records retained after the resize
  /// (the relayout copy count, which control paths charge for).
  std::size_t resize(std::size_t capacity);

  /// Non-destructive cursor read: appends all retained records with
  /// sequence >= `cursor` (oldest first) to `out` and reports the records
  /// in [cursor, oldest_seq()) — already overwritten — as a typed loss.
  /// The buffer keeps no reader state; the caller owns the cursor and
  /// should present the returned next_seq on its next read.
  TraceDrain read_from(std::uint64_t cursor,
                       std::vector<TraceRecord>& out) const;

  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t total_pushed() const { return next_seq_; }

  /// Sequence number the next pushed record will get (== total_pushed()).
  std::uint64_t next_seq() const { return next_seq_; }
  /// Sequence number of the oldest record still retained in the ring.
  /// Tracked explicitly (not derived from capacity) so a resize can carry
  /// the accounting across the relayout.
  std::uint64_t oldest_seq() const { return oldest_seq_; }

 private:
  std::vector<TraceRecord> ring_;
  std::uint64_t next_seq_ = 0;    // total records ever pushed
  std::uint64_t oldest_seq_ = 0;  // oldest sequence still retained
};

}  // namespace ktau::meas
