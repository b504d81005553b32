// The KTAU measurement system (paper §4.2).
//
// One KtauSystem runs inside each simulated kernel.  It owns the event
// registry (global mapping index), the measurement configuration, the
// overhead model, self-measurement statistics, and the profiles of exited
// tasks (so kernel-wide views cover the whole life of the system, and
// per-process views such as Figure 7 include short-lived daemons).
//
// Kernel code paths call entry()/exit()/atomic() at instrumentation points.
// Each call:
//   1. checks compile-time / boot-time / run-time enablement for the
//      point's group;
//   2. reads the simulated cycle counter for the timestamp;
//   3. updates the process-centric profile of the current process;
//   4. appends trace records when tracing is on;
//   5. charges its own direct cost to the CPU's execution cursor, which is
//      how measurement perturbs the measured system (Tables 3 and 4).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ktau/clock.hpp"
#include "ktau/config.hpp"
#include "ktau/events.hpp"
#include "ktau/profile.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace ktau::meas {

/// Process identifier as exposed through the proc interface.
using Pid = std::uint32_t;

/// Profile of a task that has exited, preserved by the measurement system.
struct ReapedTask {
  Pid pid = 0;
  std::string name;
  TaskProfile profile;
};

class KtauSystem {
 public:
  explicit KtauSystem(const KtauConfig& cfg, std::uint64_t seed = 0xC0FFEE);

  // -- instrumentation probes (called from kernel code paths) -------------

  /// Entry/exit instrumentation (paper §4.1 entry/exit event macro).
  /// `prof` may be null in contexts with no process (ignored then, but the
  /// probe cost is still charged — the real macro runs regardless).
  void entry(CpuClock& clock, TaskProfile* prof, EventId ev);
  void exit(CpuClock& clock, TaskProfile* prof, EventId ev);

  /// Atomic event instrumentation (stand-alone values, e.g. packet sizes).
  void atomic(CpuClock& clock, TaskProfile* prof, EventId ev, double value);

  /// Charges the cost of `pairs` additional entry/exit probe pairs of the
  /// given group without recording separate profile rows.  The simulated
  /// kernel's code paths are coarse stand-ins for many real instrumented
  /// functions (a single sys_read transits dozens of KTAU instrumentation
  /// points in the real patch); hidden pairs make the *perturbation* of
  /// that instrumentation density visible (Table 3) while keeping the
  /// event model tractable.  The pairs are one aggregated draw: it reads
  /// the uniforms `pairs` explicit entry/exit draws would read, in their
  /// order, charges their summed cost with one truncation to whole cycles,
  /// and feeds no start/stop statistics (Table 4 summarises explicit
  /// probes).  A disabled group is charged the flag checks only.
  void hidden_pairs(CpuClock& clock, Group g, std::uint32_t pairs);

  /// Registers (or finds) an instrumentation point.  Kernel code paths call
  /// this once and cache the id, mirroring the static-ID mechanism.
  EventId map_event(std::string_view name, Group g) {
    return registry_.map(name, g);
  }

  // -- configuration / control --------------------------------------------

  bool compiled_in() const { return cfg_.compiled_in; }
  bool tracing() const { return cfg_.tracing; }
  std::size_t trace_capacity() const { return cfg_.trace_capacity; }

  /// True when instrumentation for `ev`'s group is live right now.
  bool enabled(EventId ev) const {
    return cfg_.compiled_in && contains(effective_mask(), info(ev).group);
  }

  GroupMask effective_mask() const {
    return cfg_.boot_enabled & cfg_.runtime_enabled;
  }

  /// Run-time control (reachable from user space via the procfs control
  /// channel; see ProcKtau).
  void set_runtime_groups(GroupMask m) { cfg_.runtime_enabled = m; }
  GroupMask runtime_groups() const { return cfg_.runtime_enabled; }

  /// Makes `capacity` the default trace-ring size for subsequently created
  /// tasks (the live rings are resized by ProcKtau::ctl_set_trace_capacity,
  /// which walks the task table).
  void set_trace_capacity(std::size_t capacity) {
    cfg_.trace_capacity = capacity;
  }

  /// Charges runtime-control work (mask writes, ring resizes) as measurement
  /// overhead on the calling context — knob changes are kernel work KTAU
  /// performs on its own behalf, so they perturb like any probe and show up
  /// in total_overhead_cycles() / Table 4 accounting.
  void charge_control(CpuClock& clock, double cycles) { charge(clock, cycles); }

  const KtauConfig& config() const { return cfg_; }

  EventRegistry& registry() { return registry_; }
  const EventRegistry& registry() const { return registry_; }
  const EventInfo& info(EventId ev) const { return registry_.info(ev); }

  // -- self-measurement (Table 4) ------------------------------------------

  /// Cost distributions of the explicit entry/exit probes (hidden pairs
  /// are charged but not sampled here).
  const sim::OnlineStats& start_overhead() const { return start_overhead_; }
  const sim::OnlineStats& stop_overhead() const { return stop_overhead_; }

  /// Total cycles of measurement overhead injected into the system.
  sim::Cycles total_overhead_cycles() const { return total_overhead_; }

  // -- extraction epochs (delta snapshot support) ---------------------------

  /// Monotonic extraction epoch.  Rows mutated while the epoch is E are
  /// stamped E; a cursor-carrying profile read with cursor epoch C returns
  /// rows stamped >= C and advances the epoch, so each client sees every
  /// mutation exactly once.  Starts at 1 (cursor 0 means "never read" and
  /// selects everything).
  std::uint64_t extraction_epoch() const { return extraction_epoch_; }

  /// Stable address of the epoch counter, bound into task profiles so row
  /// stamping is a single indirect load on the probe path.
  const std::uint64_t* extraction_epoch_ptr() const {
    return &extraction_epoch_;
  }

  /// Called by the proc interface after a successful cursor-carrying read.
  void advance_extraction_epoch() { ++extraction_epoch_; }

  // -- exited-task bookkeeping ----------------------------------------------

  /// Called by the kernel when a process dies; preserves its profile for
  /// kernel-wide and per-node views.
  void reap(Pid pid, std::string name, TaskProfile&& profile);

  const std::vector<ReapedTask>& reaped() const { return reaped_; }

 private:
  /// Charges `cycles` of direct measurement cost.
  void charge(CpuClock& clock, double cycles);

  /// One probe kind's cost mixture (OverheadModel::outlier_prob): a cost
  /// is `min` plus an exponential of mean `base_scale`, or of mean
  /// `outlier_scale` with the outlier probability.
  struct CostShape {
    double min = 0;
    double base_scale = 0;
    double outlier_scale = 0;
  };
  static CostShape cost_shape(const OverheadModel& m, double min, double mean);

  /// Draws one probe cost from the heavy-tailed mixture.
  double draw_cost(const CostShape& shape);

  KtauConfig cfg_;
  EventRegistry registry_;
  CostShape start_cost_;
  CostShape stop_cost_;
  sim::Rng rng_;
  sim::OnlineStats start_overhead_;
  sim::OnlineStats stop_overhead_;
  sim::Cycles total_overhead_ = 0;
  std::uint64_t extraction_epoch_ = 1;
  std::vector<ReapedTask> reaped_;
};

}  // namespace ktau::meas
