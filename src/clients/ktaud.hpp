// KTAUD — the KTAU daemon (paper §4.5).
//
// KTAUD periodically extracts profile and trace data from the kernel via
// libKtau, for all processes or a configured subset.  It exists primarily
// to monitor processes that cannot be source-instrumented.  Because it is a
// real process in the simulation, it also perturbs the system exactly the
// way the paper's daemon-based-monitoring discussion (§2) worries about.
#pragma once

#include <cstdint>
#include <vector>

#include "clients/extract.hpp"
#include "kernel/machine.hpp"
#include "ktau/snapshot.hpp"
#include "libktau/libktau.hpp"

namespace ktau::clients {

struct KtaudConfig {
  sim::TimeNs period = 1 * sim::kSecond;
  sim::TimeNs until = 300 * sim::kSecond;
  bool collect_profiles = true;
  bool collect_traces = true;
  /// Empty: monitor everything ("all" mode); otherwise "other" mode on
  /// these pids.
  std::vector<meas::Pid> pids;
  /// User-space processing cost per KiB of extracted data, cycles.
  std::uint64_t process_per_kb = 2500;
  /// Delta profile extraction: each period pulls only rows changed since
  /// the previous one, so the daemon's per-period processing cost — and
  /// hence its perturbation of the system — drops with the extracted byte
  /// count.  Off by default (a full read every period).
  bool delta = false;
  /// Keep per-period snapshot archives in memory (tests read them).  The
  /// many-task scale bench turns this off, as a real daemon streaming to
  /// disk would.
  bool keep_archives = true;
};

class Ktaud {
 public:
  /// Spawns the daemon process on `m` and launches it.
  Ktaud(kernel::Machine& m, const KtaudConfig& cfg);

  Ktaud(const Ktaud&) = delete;
  Ktaud& operator=(const Ktaud&) = delete;

  // -- archives (read after the run) ----------------------------------------

  const std::vector<meas::ProfileSnapshot>& profiles() const {
    return profiles_;
  }
  /// Per-period trace *frames*: each holds only the records appended since
  /// the previous period, with typed loss records for anything the rings
  /// overwrote.  Stitch them with analysis::merge_trace_frames.
  const std::vector<meas::TraceSnapshot>& traces() const { return traces_; }

  /// Total trace records captured across all extractions.
  std::uint64_t total_records() const { return total_records_; }
  /// Total records lost to ring-buffer overwrite (reported by the kernel).
  std::uint64_t total_dropped() const { return total_dropped_; }
  std::uint64_t extractions() const { return extractions_; }

  /// Accounted bytes pulled by the most recent extraction period and in
  /// total (what the processing cost is charged against): profile row
  /// bytes plus trace wire bytes.
  std::uint64_t last_extract_bytes() const { return last_extract_bytes_; }
  std::uint64_t total_extract_bytes() const { return total_extract_bytes_; }

  kernel::Task& task() { return *task_; }
  /// The daemon's libKtau handle; a read through it after the run
  /// continues the daemon's cursor streams.
  user::KtauHandle& handle() { return handle_; }

 private:
  kernel::Program daemon_program();
  void extract_once();

  kernel::Machine& machine_;
  KtaudConfig cfg_;
  user::KtauHandle handle_;
  Extractor extractor_;
  kernel::Task* task_ = nullptr;

  std::vector<meas::ProfileSnapshot> profiles_;
  std::vector<meas::TraceSnapshot> traces_;
  std::uint64_t total_records_ = 0;
  std::uint64_t total_dropped_ = 0;
  std::uint64_t extractions_ = 0;
  std::uint64_t last_extract_bytes_ = 0;
  std::uint64_t total_extract_bytes_ = 0;
};

}  // namespace ktau::clients
