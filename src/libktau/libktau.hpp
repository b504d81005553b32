// libKtau: the user-space access library (paper §4.4).
//
// libKtau shields clients from the kernel-side proc protocol: it implements
// the session-less two-call (size, then read) sequence with the retry loop
// the protocol demands (the data may grow between the calls), exposes the
// self / other / all access modes, performs data conversion between the
// binary wire format and an ASCII form, offers formatted stream output, and
// carries the kernel-control operations (runtime group enable/disable,
// overhead query).
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "ktau/procfs.hpp"
#include "ktau/snapshot.hpp"

namespace ktau::user {

/// A user-space handle to one node's /proc/ktau entries.
class KtauHandle {
 public:
  explicit KtauHandle(meas::ProcKtau& proc) : proc_(proc) {}

  // -- data retrieval ---------------------------------------------------------

  /// One-shot full read: a zero-cursor profile frame for the scope, through
  /// the size/read retry loop.  Leaves the handle's delta cache alone (the
  /// read does advance the kernel's extraction epoch, which no cursor
  /// reader can observe).  Throws std::runtime_error if the data will not
  /// stabilise (pathological; bounded retries).
  meas::ProfileSnapshot get_profile(meas::Scope scope,
                                    std::span<const meas::Pid> pids = {});

  /// Self mode: a process reading its own profile.
  meas::ProfileSnapshot get_self_profile(meas::Pid self) {
    const meas::Pid pids[] = {self};
    return get_profile(meas::Scope::Self, pids);
  }

  /// Cursor-carrying trace read (wire version 4): presents the handle's
  /// per-task sequence cursor so the kernel ships only records appended
  /// since the previous call (plus name-table additions), then folds the
  /// frame into the cursor.  Returns the *frame* — new records and typed
  /// loss only, not cumulative state; callers accumulate (or stream) frames
  /// themselves, e.g. via analysis::merge_trace_frames.  The first call
  /// reads everything retained.  A handle's cursor tracks one
  /// (scope, pids) stream — use separate handles for separate streams.
  meas::TraceSnapshot get_trace_incremental(
      meas::Scope scope, std::span<const meas::Pid> pids = {});

  // -- delta retrieval (wire version 3) -------------------------------------

  /// Cursor-carrying read: runs the same size/read retry loop, but presents
  /// the handle's cached cursor so the kernel ships only rows changed since
  /// the previous call (plus name-table additions), then folds the frame
  /// into the per-pid cache and returns the reassembled snapshot.  The first
  /// call is a full read.  A handle's cache tracks one (scope, pids)
  /// stream — use separate handles for separate streams.
  const meas::ProfileSnapshot& get_profile_delta(
      meas::Scope scope, std::span<const meas::Pid> pids = {});

  /// Wire bytes moved by the most recent get_profile/get_profile_delta.
  std::uint64_t last_profile_wire_bytes() const {
    return last_profile_wire_bytes_;
  }

  /// Accounted row bytes (the daemons' modelled 28 B/event + 32 B/bridge
  /// row) carried by the most recent get_profile_delta *frame* — only the
  /// rows actually shipped, which is what delta extraction saves.
  std::uint64_t last_profile_row_bytes() const {
    return last_profile_row_bytes_;
  }

  /// The per-pid cursor cache behind get_profile_delta.
  const meas::ProfileAccumulator& profile_cache() const { return cache_; }

  /// Drops the cache; the next delta read becomes a full read.
  void reset_profile_cache() { cache_.reset(); }

  /// Wire bytes moved by the most recent get_trace_incremental — the
  /// charge-only-what-shipped basis for daemon trace extraction.
  std::uint64_t last_trace_wire_bytes() const {
    return last_trace_wire_bytes_;
  }

  /// The per-task sequence cursor behind get_trace_incremental.
  const meas::TraceCursor& trace_cursor() const { return trace_cursor_; }

  /// Drops the trace cursor; the next incremental read reads everything
  /// the rings still retain.
  void reset_trace_cursor() { trace_cursor_ = meas::TraceCursor{}; }

  // -- kernel control -----------------------------------------------------------

  /// Runtime group-mask write.  Pass the calling context's CPU clock so the
  /// control write is charged as kernel work (runtime knob changes perturb
  /// like probes); null keeps the legacy free write.
  void set_groups(meas::GroupMask mask, meas::CpuClock* clock = nullptr) {
    proc_.ctl_set_groups(mask, clock);
  }
  meas::GroupMask groups() const { return proc_.ctl_get_groups(); }

  /// Seq-preserving trace-ring resize across the scope (and the default for
  /// future spawns).  Returns the number of rings resized.
  std::size_t set_trace_capacity(std::size_t capacity,
                                 meas::Scope scope = meas::Scope::All,
                                 std::span<const meas::Pid> pids = {},
                                 meas::CpuClock* clock = nullptr) {
    return proc_.ctl_set_trace_capacity(capacity, scope, pids, clock);
  }
  std::size_t trace_capacity() const { return proc_.ctl_trace_capacity(); }

  meas::OverheadReport overhead() const { return proc_.ctl_overhead(); }

 private:
  /// The shared size/read retry loop: returns the raw frame for `cursor`
  /// and records its size in last_profile_wire_bytes_.
  std::vector<std::byte> read_profile_frame(meas::Scope scope,
                                            std::span<const meas::Pid> pids,
                                            meas::ProfileCursor cursor);

  meas::ProcKtau& proc_;
  meas::ProfileAccumulator cache_;
  meas::TraceCursor trace_cursor_;
  std::uint64_t last_profile_wire_bytes_ = 0;
  std::uint64_t last_profile_row_bytes_ = 0;
  std::uint64_t last_trace_wire_bytes_ = 0;
};

// -- ASCII conversion (paper: "data conversion (ASCII to/from binary)") ------

/// Renders a decoded profile snapshot as a line-oriented ASCII document.
std::string profile_to_ascii(const meas::ProfileSnapshot& snap);

/// Parses the ASCII form back into a snapshot.  Throws std::runtime_error
/// on malformed input.  Round-trips with profile_to_ascii().
meas::ProfileSnapshot profile_from_ascii(const std::string& text);

// -- formatted stream output ----------------------------------------------------

struct PrintOptions {
  bool show_atomic = true;
  bool show_bridge = false;
  /// Hide events with zero counts and tasks with no activity.
  bool skip_empty = true;
};

/// Human-readable profile dump (one block per task, events sorted by
/// inclusive time).
void print_profile(std::ostream& os, const meas::ProfileSnapshot& snap,
                   const PrintOptions& opts = {});

}  // namespace ktau::user
