// Merged-trace export: a machine-readable event log for external timeline
// viewers (the role Vampir/Jumpshot play for KTAU+TAU traces, paper §3/§5.1).
//
// Format ("KTL v1", line oriented, tab separated):
//
//   #KTL v1
//   #freq <hz>
//   #stream <id> <name>                 one per process/stream
//   E <ts_ns> <stream> <K|U> <name>     region enter
//   L <ts_ns> <stream> <K|U> <name>     region leave
//   V <ts_ns> <stream> <name> <value>   atomic value event
//   G <ts_ns> <stream> <dropped> <first_seq>   known loss: `dropped` kernel
//                                       records (sequences from first_seq)
//                                       overwritten before extraction; ts is
//                                       the gap's upper time bound
//
// Events are globally time-sorted, so a viewer can replay the file in one
// pass.  A reader is provided for round-trip validation and tooling.
// Gapless traces produce no G lines.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/render.hpp"
#include "ktau/snapshot.hpp"
#include "tau/profiler.hpp"

namespace ktau::analysis {

/// Stitches a sequence of trace frames (ktaud's periodic cursor drains, in
/// extraction order) into one combined snapshot: per-pid records
/// concatenated, typed loss records accumulated, event tables unioned by
/// id.  The merge is loss-aware twice over: each frame's own gaps carry
/// through, and a cursor discontinuity *between* frames (frame N+1's
/// base_seq past frame N's next_seq — a reset reader or a skipped frame)
/// is synthesized into a gap rather than silently closed over.
meas::TraceSnapshot merge_trace_frames(
    const std::vector<meas::TraceSnapshot>& frames);

/// One stream (process) of a trace export.
struct TraceStream {
  meas::Pid pid = 0;
  std::string name;
  /// Kernel-side records for this pid (from one or more drained
  /// TraceSnapshots, concatenated in time order).
  const meas::TraceSnapshot* ktrace = nullptr;
  /// Optional user-side event log.
  const tau::Profiler* tau = nullptr;
};

/// Writes the merged, time-sorted event log for the given streams.
void export_ktl(std::ostream& os, sim::FreqHz freq,
                const std::vector<TraceStream>& streams);

// -- reader -------------------------------------------------------------------

struct KtlEvent {
  sim::TimeNs timestamp = 0;
  std::uint32_t stream = 0;
  bool is_kernel = false;
  enum class Kind { Enter, Leave, Value, Gap } kind = Kind::Enter;
  std::string name;
  double value = 0;               // Kind::Value only
  std::uint64_t dropped = 0;      // Kind::Gap only
  std::uint64_t first_seq = 0;    // Kind::Gap only
};

struct KtlFile {
  sim::FreqHz freq = 0;
  std::vector<std::pair<std::uint32_t, std::string>> streams;
  std::vector<KtlEvent> events;
};

/// Parses a KTL document.  Throws std::runtime_error on malformed input.
KtlFile read_ktl(const std::string& text);

}  // namespace ktau::analysis
