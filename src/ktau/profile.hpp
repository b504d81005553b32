// Per-process KTAU measurement state (paper §4.2).
//
// Upon process creation the measurement system attaches one of these to the
// process control block.  It holds:
//   - per-event profile metrics (call count, inclusive/exclusive cycles),
//     indexed by the event-mapping id;
//   - the event activation stack used to derive inclusive vs exclusive time
//     (paper §4.1: "keeps track of the event activation stack depth");
//   - atomic-event statistics (stand-alone values such as packet sizes);
//   - the optional circular trace buffer;
//   - the user-context bridge: the id of the user-level (TAU) event the
//     process is currently executing, plus a (user event × kernel event)
//     accumulation matrix.  This is the mechanism behind the paper's merged
//     user/kernel views: Figure 4 (MPI_Recv's kernel call groups) and
//     Figure 9 (kernel TCP calls inside a compute phase).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ktau/events.hpp"
#include "ktau/metrics_map.hpp"
#include "ktau/trace.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace ktau::meas {

/// Profile counters for one event within one process.
struct EventMetrics {
  std::uint64_t count = 0;
  sim::Cycles incl = 0;  // inclusive cycles (includes child events)
  sim::Cycles excl = 0;  // exclusive cycles (child time subtracted)
  std::uint64_t epoch = 0;  // extraction epoch of the last mutation
};

/// Statistics for one atomic (stand-alone value) event.
struct AtomicMetrics {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  std::uint64_t epoch = 0;  // extraction epoch of the last mutation

  void add(double v);
  double mean() const { return count ? sum / static_cast<double>(count) : 0; }
};

/// Key for the (user event, kernel event) bridge matrix and for
/// (parent event, child event) call-path edges.
constexpr std::uint64_t bridge_key(EventId user_ev, EventId kernel_ev) {
  return (static_cast<std::uint64_t>(user_ev) << 32) | kernel_ev;
}

/// Probe-hot-path map type for the bridge matrix and call-path edges.
using MetricsMap = FlatKeyMap<EventMetrics>;

/// Per-request rows: (request tag << 32 | kernel event, metrics).
using RequestRows = std::vector<std::pair<std::uint64_t, EventMetrics>>;

/// Parent id used for call-path edges of events entered at stack depth 0.
inline constexpr EventId kCallpathRoot = 0xFFFFFFFEu;

class TaskProfile {
 public:
  TaskProfile() = default;

  // -- entry/exit event measurement ---------------------------------------

  /// Records entry into an instrumented region at cycle time `now`.
  void entry(EventId ev, sim::Cycles now);

  /// Records exit from an instrumented region.  The top of the activation
  /// stack must be `ev` (unbalanced instrumentation is a programming error
  /// in the kernel code paths and throws std::logic_error).
  /// Returns the inclusive cycles of the completed activation.
  sim::Cycles exit(EventId ev, sim::Cycles now);

  /// Records a stand-alone value event (paper §4.1, atomic event macro).
  void atomic(EventId ev, double value);

  std::size_t stack_depth() const { return stack_.size(); }

  /// Event id at the top of the activation stack, or kNoEventId if idle.
  EventId current_event() const {
    return stack_.empty() ? kNoEventId : stack_.back().ev;
  }

  // -- accessors ------------------------------------------------------------

  const EventMetrics& metrics(EventId ev) const;
  const std::vector<EventMetrics>& all_metrics() const { return events_; }
  const std::unordered_map<EventId, AtomicMetrics>& atomics() const {
    return atomics_;
  }

  // -- dirty epochs (delta snapshot support) --------------------------------

  /// Binds the extraction-epoch counter whose current value stamps every
  /// mutated row.  The kernel binds all task (and idle) profiles to its
  /// KtauSystem's epoch at creation; unbound profiles stamp the constant 1,
  /// which keeps every row "dirty since epoch 1" (full snapshots see
  /// everything, and stand-alone TaskProfiles in tests need no setup).
  void bind_epoch(const std::uint64_t* epoch) { epoch_src_ = epoch; }

  /// Epoch of the most recent row mutation anywhere in this profile (0 if
  /// nothing has ever been recorded).  Lets delta serialization skip whole
  /// clean tasks without walking their rows.
  std::uint64_t dirty_epoch() const { return dirty_epoch_; }

  // -- user-context bridge (TAU integration) -------------------------------

  /// Set by the user-level measurement layer when the process enters/leaves
  /// a user routine; kNoEventId means "no instrumented user routine active".
  void set_user_context(EventId user_ev) { user_context_ = user_ev; }
  EventId user_context() const { return user_context_; }

  /// (user event << 32 | kernel event) -> accumulated kernel metrics that
  /// occurred while the user event was the process's user context.
  const MetricsMap& bridge() const { return bridge_; }

  // -- request attribution (serving workloads, DESIGN.md §14) ---------------

  /// Set by the application when it picks up / finishes a request; 0 means
  /// "no request in flight".  Each probe entry captures the tag active at
  /// entry time into its activation frame, so attribution follows the frame
  /// (an exit pairs against the tag its entry saw, even if the tag changed
  /// mid-activation — mirrors the §12 mask-flip pairing rule).
  void set_request_tag(std::uint32_t tag) { request_tag_ = tag; }
  std::uint32_t request_tag() const { return request_tag_; }

  /// Tag carried by the most recently closed activation frame (0 if the
  /// last exit was untagged or nothing has exited yet).  KtauSystem reads
  /// this right after exit() to stamp the trace Exit record.
  std::uint32_t last_closed_tag() const { return last_closed_tag_; }

  /// One row per (request tag << 32 | kernel event), in first-touch order:
  /// metrics of kernel activations whose entry fired while that request
  /// was in flight.
  const RequestRows& requests() const { return requests_; }

  // -- call-path profiling (paper §6 future work: "merged user-kernel
  //    call-graph profiles") -----------------------------------------------

  /// Enables per-edge (caller -> callee) accounting.  Off by default (the
  /// flat profile is KTAU's production mode); enable before events fire.
  void enable_callpath(bool on) { callpath_ = on; }
  bool callpath_enabled() const { return callpath_; }

  /// (parent event << 32 | child event) -> metrics of the child when
  /// invoked under that parent; parent is kCallpathRoot at depth 0.
  const MetricsMap& edges() const { return edges_; }

  // -- tracing --------------------------------------------------------------

  /// Enables tracing with a circular buffer of `capacity` records.
  void enable_trace(std::size_t capacity) {
    trace_ = std::make_unique<TraceBuffer>(capacity);
  }
  TraceBuffer* trace() { return trace_.get(); }
  const TraceBuffer* trace() const { return trace_.get(); }

 private:
  struct Frame {
    EventId ev;
    sim::Cycles start;
    sim::Cycles child;  // cycles consumed by nested activations
    std::uint32_t tag;  // request tag active when the frame was entered
  };

  EventMetrics& slot(EventId ev);
  EventMetrics& request_row(std::uint64_t key);

  /// Epoch source for unbound profiles: a constant 1, so rows are always
  /// newer than the "never extracted" cursor (epoch 0) yet need no branch
  /// on the probe hot path.
  static const std::uint64_t kUnboundEpoch;

  std::vector<EventMetrics> events_;
  std::vector<Frame> stack_;
  std::unordered_map<EventId, AtomicMetrics> atomics_;
  MetricsMap bridge_;
  bool callpath_ = false;
  MetricsMap edges_;
  EventId user_context_ = kNoEventId;
  std::uint32_t request_tag_ = 0;
  std::uint32_t last_closed_tag_ = 0;
  // Request rows are found through a per-tag chain: a request touches a
  // handful of events, mostly in adjacent rows, so its exits hit the head
  // map's one-entry cache and walk a short chain, and the hash holds one
  // slot per request.  Both links store a row index + 1; 0 ends the chain.
  RequestRows requests_;
  std::vector<std::uint32_t> request_next_;  // row -> older row, same tag
  FlatKeyMap<std::uint32_t> request_head_;   // tag -> newest row
  std::unique_ptr<TraceBuffer> trace_;
  const std::uint64_t* epoch_src_ = &kUnboundEpoch;
  std::uint64_t dirty_epoch_ = 0;
};

}  // namespace ktau::meas
