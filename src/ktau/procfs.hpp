// The simulated /proc/ktau interface (paper §4.3).
//
// KTAU exposes two proc entries, `profile` and `trace`, that user-space
// clients access through libKtau.  The interface is deliberately
// *session-less*: a profile read requires one call to determine the size
// and a second call to retrieve the data, and the kernel keeps no state
// between the two calls — the size may legitimately change in between, and
// clients must cope (the paper motivates this as robustness against
// misbehaving clients and resource leaks).
//
// ProcKtau reproduces that protocol: `profile_size()` reports the size a
// serialization would have right now; `profile_read()` re-serializes at
// call time and fails (returns false) if the result no longer fits the
// caller's buffer capacity, forcing the size/read retry loop that libKtau
// implements.  Each plane has one wire format: profile reads are
// cursor-carrying v3 frames and trace reads are cursor-carrying v4 frames;
// a zero cursor makes either a full read.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ktau/snapshot.hpp"
#include "ktau/system.hpp"

namespace ktau::meas {

/// Scope selector for data retrieval, mirroring libKtau's access modes:
/// a process reading its own data (self), a daemon reading named pids
/// (other), or a daemon reading every process in the system (all).
enum class Scope {
  Self,   // the calling process only
  Other,  // an explicit pid set
  All,    // every live process plus reaped (exited) ones
};

/// Kernel-side directory of live tasks; implemented by the simulated kernel
/// so the proc interface can walk the task list (Figure 1: "task list").
class TaskTable {
 public:
  virtual ~TaskTable() = default;

  /// Snapshot views of all live tasks, in pid order.
  virtual std::vector<TaskSnapshotInput> live_tasks() const = 0;

  /// Mutable profile access for trace-ring resizes.  Null if pid unknown.
  virtual TaskProfile* find_profile(Pid pid) = 0;

  /// View for one pid.  std::nullopt if unknown.
  virtual std::optional<TaskSnapshotInput> find_task(Pid pid) const = 0;
};

/// Aggregate overhead numbers reported by the control channel (the paper's
/// "internal KTAU timing/overhead query utilities", §4.5, and Table 4).
struct OverheadReport {
  std::uint64_t start_count = 0;
  double start_mean = 0, start_stddev = 0, start_min = 0;
  std::uint64_t stop_count = 0;
  double stop_mean = 0, stop_stddev = 0, stop_min = 0;
  sim::Cycles total_cycles = 0;
};

class ProcKtau {
 public:
  /// `now` supplies the kernel's current time for snapshot timestamps.
  ProcKtau(KtauSystem& sys, TaskTable& tasks, sim::FreqHz cpu_freq,
           std::function<sim::TimeNs()> now);

  // -- /proc/ktau/profile (wire version 3) ----------------------------------
  //
  // The client presents the cursor it got from its previous read and
  // receives only rows stamped since then plus name-table additions; a
  // zero cursor (ProfileCursor{}) reads everything.  The kernel keeps no
  // per-client state: the cursor lives entirely client-side (libKtau's
  // ProfileAccumulator).  A successful read advances the system extraction
  // epoch so the next period's mutations are distinguishable from this
  // one's.

  /// First call of the two-call protocol: size (bytes) that a read with
  /// this scope and cursor would produce *right now*.
  std::size_t profile_size(Scope scope, std::span<const Pid> pids,
                           ProfileCursor cursor) const;

  /// Second call: serializes rows changed since `cursor`.  Returns true,
  /// fills `out` and advances the extraction epoch when the serialization
  /// fits in `capacity` bytes; returns false (and leaves `out` empty) when
  /// the data has grown past `capacity`, in which case the client must
  /// re-query the size.
  bool profile_read(Scope scope, std::span<const Pid> pids,
                    ProfileCursor cursor, std::size_t capacity,
                    std::vector<std::byte>& out);

  // -- /proc/ktau/trace (wire version 4) ------------------------------------
  //
  // Same session-less discipline applied to the trace rings: the client
  // presents the per-task sequence cursor from its previous read and
  // receives only records with sequence >= cursor (plus name-table
  // additions from cursor.names on).  The read is *non-destructive* — ring
  // buffers are not consumed, so any number of readers with independent
  // cursors coexist.  A task is shipped only when it has new records,
  // counted loss, or the cursor has never seen it (so a zero cursor reads
  // everything the rings retain).  Every scope covers reaped tasks
  // (Scope::All all of them, Self/Other the named pids that exited), so
  // the records a task pushed after the reader's last read and before it
  // exited still ship.
  std::vector<std::byte> trace_read(Scope scope, std::span<const Pid> pids,
                                    const TraceCursor& cursor) const;

  // -- control (ioctl-style) -------------------------------------------------

  /// Runtime instrumentation control (paper §3: "dynamic measurement
  /// control to enable/disable kernel-level events at runtime").  When the
  /// caller passes its CPU clock the control write is charged as probe-cost
  /// kernel work (OverheadModel::ctl_cost); a null clock keeps the legacy
  /// free write for contexts with no charging surface (tests, setup code).
  void ctl_set_groups(GroupMask mask, CpuClock* clock = nullptr) {
    if (clock != nullptr) sys_.charge_control(*clock, ctl_cost());
    sys_.set_runtime_groups(mask);
  }
  GroupMask ctl_get_groups() const { return sys_.runtime_groups(); }

  /// Resizes the trace ring of every traced task in scope (Scope::All also
  /// covers the per-CPU idle tasks) seq-preservingly — retained records and
  /// oldest/next sequence accounting carry over; shrinking counts discarded
  /// records as typed loss — and makes `capacity` the default for future
  /// spawns.  Charged like ctl_set_groups, plus a per-retained-record
  /// relayout cost for each ring touched.  Returns the number of rings
  /// resized.  Throws std::invalid_argument for capacity 0.
  std::size_t ctl_set_trace_capacity(std::size_t capacity,
                                     Scope scope = Scope::All,
                                     std::span<const Pid> pids = {},
                                     CpuClock* clock = nullptr);

  /// Current default trace-ring capacity (what a new spawn would get).
  std::size_t ctl_trace_capacity() const { return sys_.trace_capacity(); }

  /// Direct-overhead query (Table 4).
  OverheadReport ctl_overhead() const;

 private:
  /// Resolves the scope to the set of tasks to serialize.  With
  /// `include_reaped` set, Scope::All also covers every reaped (exited)
  /// task, so system-wide reads cover short-lived processes, and a named
  /// pid that is no longer live resolves among the reaped tasks.
  std::vector<TaskSnapshotInput> select(Scope scope, std::span<const Pid> pids,
                                        bool include_reaped) const;

  double ctl_cost() const { return sys_.config().overhead.ctl_cost; }

  KtauSystem& sys_;
  TaskTable& tasks_;
  sim::FreqHz cpu_freq_;
  std::function<sim::TimeNs()> now_;
};

}  // namespace ktau::meas
