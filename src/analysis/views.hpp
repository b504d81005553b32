// Analysis views over KTAU snapshots: the two perspectives the paper is
// built around (§1), plus the merged user/kernel profile.
//
//  - kernel-wide view: aggregate kernel activity across all processes of
//    one node's snapshot (Figure 2-A); per-process breakdowns (Figures 2-B,
//    7) fold each task with group_breakdown;
//  - process-centric view: one process's kernel profile, grouped by kernel
//    subsystem (call groups, Figure 4);
//  - merged view: TAU user-level routines with kernel time subtracted
//    ("true" exclusive time) plus kernel routines as first-class rows
//    (Figure 2-D).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ktau/snapshot.hpp"
#include "tau/profiler.hpp"

namespace ktau::analysis {

/// A named aggregate row (seconds are derived from the snapshot's CPU
/// frequency).
struct EventRow {
  std::string name;
  meas::Group group = meas::Group::Sched;
  std::uint64_t count = 0;
  double incl_sec = 0;
  double excl_sec = 0;
};

/// Kernel-wide view: per-event totals summed over every task in the
/// snapshot and merged by event name (sorted by inclusive seconds,
/// descending).
std::vector<EventRow> aggregate_events(const meas::ProfileSnapshot& snap);

/// Call-group breakdown of one task's kernel profile: exclusive seconds
/// per instrumentation group (sched / irq / bottom-half / syscall / net...).
std::map<meas::Group, double> group_breakdown(
    const meas::ProfileSnapshot& snap, const meas::TaskProfileData& task);

/// Kernel events that executed while `user_ev` was the process's user
/// context — MPI_Recv's "kernel call groups" of Figure 4.
std::vector<EventRow> kernel_within_user(const meas::ProfileSnapshot& snap,
                                         const meas::TaskProfileData& task,
                                         meas::EventId user_ev);

/// Same, folded by group.
std::map<meas::Group, double> groups_within_user(
    const meas::ProfileSnapshot& snap, const meas::TaskProfileData& task,
    meas::EventId user_ev);

/// One row of the merged user/kernel profile (Figure 2-D).
struct MergedRow {
  std::string name;
  bool is_kernel = false;
  std::uint64_t count = 0;
  /// User routine: TAU's raw exclusive time (includes kernel time).
  double raw_excl_sec = 0;
  /// Merged view: kernel time inside the routine subtracted; for kernel
  /// rows this is the kernel event's exclusive time itself.
  double true_excl_sec = 0;
};

/// Builds the merged profile for one process: every TAU routine with raw
/// and "true" exclusive time, followed by the kernel events of the task's
/// KTAU profile.  Sorted by true exclusive time, descending.
std::vector<MergedRow> merged_profile(const meas::ProfileSnapshot& snap,
                                      const meas::TaskProfileData& task,
                                      const tau::Profiler& tau_prof);

/// One row of a rendered kernel call graph (depth-first order).
struct CallGraphNode {
  std::string name;
  int depth = 0;
  std::uint64_t count = 0;
  double incl_sec = 0;
  double excl_sec = 0;
};

/// Expands a task's call-path edges (KtauConfig::callpath must have been
/// enabled during the run) into a depth-first tree rooted at the top-level
/// activations, children sorted by inclusive seconds.  `max_depth` bounds
/// recursion (edges form a folded graph, not a strict tree).
std::vector<CallGraphNode> callgraph(const meas::ProfileSnapshot& snap,
                                     const meas::TaskProfileData& task,
                                     int max_depth = 8);

/// Finds the task entry for a pid; throws std::out_of_range if absent.
const meas::TaskProfileData& task_of(const meas::ProfileSnapshot& snap,
                                     meas::Pid pid);

/// Sums `metric` over the given event name in one task (0 if absent).
struct NamedMetrics {
  std::uint64_t count = 0;
  double incl_sec = 0;
  double excl_sec = 0;
};
NamedMetrics named_metrics(const meas::ProfileSnapshot& snap,
                           const meas::TaskProfileData& task,
                           std::string_view event_name);

/// Injected-fault activity visible in one node's snapshot: the per-event
/// totals of the fault instrumentation points (sim/fault.hpp — IRQ storms,
/// stolen-cycle bursts, TCP retransmission timers) summed over every task.
/// Healthy nodes have no such events registered, so comparing this across
/// a cluster's snapshots makes degraded nodes stand out in the kernel-wide
/// view.  Sorted by inclusive seconds, descending.
std::vector<EventRow> interference_events(const meas::ProfileSnapshot& snap);

/// Total inclusive seconds of the above (0.0 for a healthy node).  The
/// fault events never nest within each other, so summing inclusive time
/// does not double-count.
double interference_seconds(const meas::ProfileSnapshot& snap);

}  // namespace ktau::analysis
