// Shared extraction engine for the periodic daemons (paper §4.5).
//
// Ktaud and Adaptd used to carry near-identical extract loops (and had
// drifted on error handling and byte accounting); both now pull their data
// through one Extractor.  It reads profiles through libKtau's cursor-
// carrying size/read retry path and traces through cursor drains, and owns
// the byte accounting the daemons charge their simulated processing cost
// against:
//
//   profiles:  decoded row payloads (events*28 + bridge*32 bytes) over the
//              rows the frame shipped — every row for a full read, only
//              the changed ones for a delta read;
//   traces:    the wire bytes the cursor frame actually shipped (records,
//              typed loss, name-table additions, framing).
#pragma once

#include <cstdint>
#include <vector>

#include "kernel/machine.hpp"
#include "ktau/snapshot.hpp"
#include "libktau/libktau.hpp"

namespace ktau::clients {

/// Accounting for one extraction period.
struct ExtractStats {
  std::uint64_t profile_bytes = 0;  // accounted profile payload
  std::uint64_t trace_bytes = 0;    // accounted trace payload
  std::uint64_t records = 0;        // trace records pulled this period
  std::uint64_t dropped = 0;        // records lost to ring-buffer overwrite

  std::uint64_t total_bytes() const { return profile_bytes + trace_bytes; }
};

class Extractor {
 public:
  /// `pids` empty selects Scope::All, otherwise Scope::Other — the same
  /// rule both daemons applied.  `delta` keeps the handle's cursor across
  /// profile reads; without it every read is a full (zero-cursor) read.
  Extractor(user::KtauHandle& handle, std::vector<meas::Pid> pids, bool delta)
      : handle_(handle), pids_(std::move(pids)), delta_(delta) {}

  Extractor(const Extractor&) = delete;
  Extractor& operator=(const Extractor&) = delete;

  meas::Scope scope() const {
    return pids_.empty() ? meas::Scope::All : meas::Scope::Other;
  }

  /// Profile extraction through the shared retry path.  The returned
  /// reference is the handle's reassembled cursor cache, holding
  /// cumulative totals for every task.  Adds this period's accounted
  /// profile bytes to `stats`.
  const meas::ProfileSnapshot& extract_profile(ExtractStats& stats);

  /// Trace extraction: the non-destructive cursor read, returning only
  /// records appended since the previous call plus typed loss.  Adds
  /// record counts and the shipped wire bytes to `stats`.
  meas::TraceSnapshot extract_trace(ExtractStats& stats);

  /// Charges the period's user-space processing cost — per_kb cycles per
  /// KiB of accounted bytes, rounded up — to `task`'s CPU.  No-op for a
  /// task not currently on a CPU.
  static void charge(kernel::Task& task, const ExtractStats& stats,
                     std::uint64_t per_kb);

 private:
  user::KtauHandle& handle_;
  std::vector<meas::Pid> pids_;
  bool delta_ = false;
};

}  // namespace ktau::clients
