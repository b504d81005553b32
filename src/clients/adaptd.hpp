// adaptd — an adaptive kernel-configuration controller driven by KTAU data.
//
// The KTAU project's home was the ZeptoOS "dynamically adaptive kernel
// configuration" effort (paper §3 and §6): kernel measurement exists so a
// runtime component can *act* on it.  This client closes that loop for the
// interrupt-routing decision the paper's §5.2 diagnosis ended with: it
// periodically samples the per-CPU interrupt counters (the
// /proc/interrupts analogue) plus the kernel-wide KTAU profile, and
// switches the node to round-robin IRQ routing when one CPU is absorbing
// nearly all interrupt work.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "analysis/control.hpp"
#include "clients/extract.hpp"
#include "kernel/machine.hpp"
#include "libktau/libktau.hpp"

namespace ktau::clients {

struct AdaptdConfig {
  sim::TimeNs period = 2 * sim::kSecond;
  sim::TimeNs until = 100'000 * sim::kSecond;
  /// Rebalance when the busiest CPU took more than `imbalance_ratio` times
  /// the interrupts of the least busy one over the last period (and a
  /// meaningful number of them).
  double imbalance_ratio = 4.0;
  std::uint64_t min_irqs = 50;
  /// Also sample trace activity each period through a cursor drain
  /// (non-destructive: ktaud's trace collection is not disturbed).  The
  /// controller only counts records/loss — a cheap "is anything bursting"
  /// signal — but the bytes go through the same stats and charging as
  /// everything else.  Off by default.
  bool observe_traces = false;
  /// User-space processing cost per KiB of extracted data, cycles (the
  /// same default as ktaud's).
  std::uint64_t process_per_kb = 2500;

  // -- measurement-control loop (DESIGN.md §12) ----------------------------

  /// When true the daemon is a closed-loop measurement controller: each
  /// period it compares observed perturbation (probe overhead cycles +
  /// extraction wire bytes) and trace loss against the budgets below, then
  /// steers the runtime group mask and the per-task trace-ring capacity
  /// through the procfs control channel.  Off by default — every legacy
  /// scenario is byte-identical with the controller disabled.  Control mode
  /// implies observe_traces (the loss signal comes from the controller's
  /// own cursor drains).
  bool control = false;
  /// Per-period perturbation budgets: probe overhead cycles (node-wide
  /// KtauSystem total, differenced per period) and extraction wire bytes.
  std::uint64_t cycles_budget = 2'000'000;
  std::uint64_t wire_budget = 256 * 1024;
  /// Per-period trace-loss budget (records overwritten or discarded).
  std::uint64_t loss_budget = 0;
  /// Actuator 1: the masks the controller steers between.  sparse_groups
  /// keeps sentinel groups live so the controller still sees load shift.
  meas::GroupMask dense_groups = meas::kAllGroups;
  meas::GroupMask sparse_groups = meas::Group::Sched | meas::Group::Irq;
  /// Actuator 2: upper bound for the ring-grow actuator.
  std::size_t max_trace_capacity = 8192;
  /// Hysteresis: restore the dense mask only after this many consecutive
  /// calm periods (all signals below budget / calm_divisor, zero loss).
  std::uint32_t calm_periods = 2;
  std::uint64_t calm_divisor = 4;
};

class Adaptd {
 public:
  Adaptd(kernel::Machine& m, const AdaptdConfig& cfg);

  Adaptd(const Adaptd&) = delete;
  Adaptd& operator=(const Adaptd&) = delete;

  /// True once the controller switched the node to balanced routing.
  bool rebalanced() const { return rebalanced_; }
  sim::TimeNs rebalanced_at() const { return rebalanced_at_; }
  std::uint64_t decisions() const { return decisions_; }

  /// Per-CPU interrupt deltas observed at the last decision point.
  const std::vector<std::uint64_t>& last_cpu_irqs() const {
    return last_cpu_irqs_;
  }

  /// Total kernel interrupt-group seconds (from the KTAU profile) at the
  /// last decision — the measurement the controller logs alongside its
  /// routing decision.
  double observed_irq_sec() const { return observed_irq_sec_; }

  /// Cumulative trace records / counted losses seen by the observe_traces
  /// drains (0 when the mode is off).
  std::uint64_t observed_trace_records() const {
    return observed_trace_records_;
  }
  std::uint64_t observed_trace_dropped() const {
    return observed_trace_dropped_;
  }

  /// Cumulative extraction wire bytes (profile + trace) moved by this
  /// daemon's reads — the perturbation signal's wire component.
  std::uint64_t observed_wire_bytes() const { return observed_wire_bytes_; }

  /// Trace records seen (via observe_traces drains) whose event belongs to
  /// `g` — the burst-coverage measure (0 when the group was masked off or
  /// traces are not observed).
  std::uint64_t observed_group_records(meas::Group g) const {
    const auto it = group_records_.find(meas::mask_of(g));
    return it == group_records_.end() ? 0 : it->second;
  }

  /// One entry per decision period in control mode (empty otherwise).
  const std::vector<analysis::ControlDecision>& decision_log() const {
    return decision_log_;
  }

 private:
  kernel::Program controller_program();
  void decide_once();
  /// The measurement-control step: compare this period's signals against
  /// the budgets and steer the two actuators.
  void control_step(std::uint64_t period_wire, std::uint64_t period_dropped);

  kernel::Machine& machine_;
  AdaptdConfig cfg_;
  user::KtauHandle handle_;
  Extractor extractor_;
  kernel::Task* task_ = nullptr;
  bool rebalanced_ = false;
  sim::TimeNs rebalanced_at_ = 0;
  std::uint64_t decisions_ = 0;
  double observed_irq_sec_ = 0;
  std::uint64_t observed_trace_records_ = 0;
  std::uint64_t observed_trace_dropped_ = 0;
  std::uint64_t observed_wire_bytes_ = 0;
  /// Per-group record census from the observe_traces drains, keyed by
  /// mask_of(group).  Event groups are learned from the frames' incremental
  /// name tables (ids are absolute registry ids).
  std::unordered_map<meas::GroupMask, std::uint64_t> group_records_;
  std::unordered_map<meas::EventId, meas::Group> event_groups_;
  // Controller state (control mode only).
  std::vector<analysis::ControlDecision> decision_log_;
  meas::GroupMask cur_groups_ = meas::kAllGroups;
  std::uint64_t prev_probe_cycles_ = 0;
  std::uint32_t calm_streak_ = 0;
  std::vector<std::uint64_t> last_cpu_irqs_;
  /// Per-CPU counter baseline at the previous decision (deltas, not
  /// lifetime totals, drive the decision).
  std::vector<std::uint64_t> prev_cpu_irqs_;
};

}  // namespace ktau::clients
