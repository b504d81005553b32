#include "clients/adaptd.hpp"

#include <algorithm>

#include "analysis/views.hpp"

namespace ktau::clients {

Adaptd::Adaptd(kernel::Machine& m, const AdaptdConfig& cfg)
    : machine_(m),
      cfg_(cfg),
      handle_(m.proc()),
      extractor_(handle_, /*pids=*/{}, /*delta=*/true) {
  // Control mode needs the trace-loss signal; force the drains on.
  cfg_.observe_traces = cfg_.observe_traces || cfg_.control;
  cur_groups_ = handle_.groups();
  prev_cpu_irqs_.assign(machine_.cpu_count(), 0);
  task_ = &machine_.spawn("adaptd");
  task_->is_daemon = true;
  task_->program = controller_program();
  machine_.launch(*task_);
}

void Adaptd::decide_once() {
  ++decisions_;

  // /proc/interrupts analogue: per-CPU device interrupt counts.
  last_cpu_irqs_.assign(machine_.cpu_count(), 0);
  std::uint64_t max_delta = 0, min_delta = ~std::uint64_t{0};
  for (std::uint32_t c = 0; c < machine_.cpu_count(); ++c) {
    const std::uint64_t total = machine_.cpu(c).hard_irqs;
    const std::uint64_t delta = total - prev_cpu_irqs_[c];
    prev_cpu_irqs_[c] = total;
    last_cpu_irqs_[c] = delta;
    max_delta = std::max(max_delta, delta);
    min_delta = std::min(min_delta, delta);
  }

  // KTAU view: how much kernel time interrupts actually cost right now
  // (what the controller reports along with its decision).
  observed_irq_sec_ = 0;
  ExtractStats stats;
  const meas::ProfileSnapshot& snap = extractor_.extract_profile(stats);
  for (const auto& task : snap.tasks) {
    const auto groups = analysis::group_breakdown(snap, task);
    const auto it = groups.find(meas::Group::Irq);
    if (it != groups.end()) observed_irq_sec_ += it->second;
  }
  std::uint64_t period_wire = handle_.last_profile_wire_bytes();
  std::uint64_t period_dropped = 0;
  if (cfg_.observe_traces) {
    const meas::TraceSnapshot frame = extractor_.extract_trace(stats);
    observed_trace_records_ += stats.records;
    observed_trace_dropped_ += stats.dropped;
    period_dropped = stats.dropped;
    // Per-group record census: frames ship name-table additions with
    // absolute registry ids, so the learned id -> group map stays valid
    // across frames.
    for (const meas::EventDesc& d : frame.events) event_groups_[d.id] = d.group;
    for (const auto& t : frame.tasks) {
      for (const meas::TraceRecord& rec : t.records) {
        const auto it = event_groups_.find(rec.event);
        if (it != event_groups_.end()) {
          ++group_records_[meas::mask_of(it->second)];
        }
      }
    }
    period_wire += stats.trace_bytes;
  }
  observed_wire_bytes_ += period_wire;
  Extractor::charge(*task_, stats, cfg_.process_per_kb);

  if (cfg_.control) control_step(period_wire, period_dropped);

  if (rebalanced_ || machine_.cpu_count() < 2) return;
  if (max_delta < cfg_.min_irqs) return;
  const double ratio = min_delta == 0
                           ? static_cast<double>(max_delta)
                           : static_cast<double>(max_delta) /
                                 static_cast<double>(min_delta);
  if (ratio >= cfg_.imbalance_ratio) {
    machine_.set_irq_policy(kernel::IrqPolicy::RoundRobin);
    rebalanced_ = true;
    rebalanced_at_ = machine_.engine().now();
  }
}

void Adaptd::control_step(std::uint64_t period_wire,
                          std::uint64_t period_dropped) {
  // Perturbation signal: probe overhead cycles injected node-wide since the
  // previous decision.  Updated before acting, so the cost of this period's
  // control writes is observed (and budgeted) next period — the controller
  // watches its own perturbation too.
  const std::uint64_t total_cycles = handle_.overhead().total_cycles;
  const std::uint64_t period_cycles = total_cycles - prev_probe_cycles_;
  prev_probe_cycles_ = total_cycles;

  meas::CpuClock* clk =
      task_->cpu != nullptr ? &task_->cpu->clock : nullptr;
  using Action = analysis::ControlDecision::Action;

  const bool hot = period_cycles > cfg_.cycles_budget ||
                   period_wire > cfg_.wire_budget;
  const bool lossy = period_dropped > cfg_.loss_budget;
  const bool calm = period_dropped == 0 &&
                    period_cycles <= cfg_.cycles_budget / cfg_.calm_divisor &&
                    period_wire <= cfg_.wire_budget / cfg_.calm_divisor;
  calm_streak_ = calm ? calm_streak_ + 1 : 0;

  Action act = Action::Hold;
  // Actuator 2 first — stop losing data before shedding probes: grow the
  // rings to what this period would have needed (retained + dropped,
  // rounded up by doubling, capped).
  if (lossy && handle_.trace_capacity() < cfg_.max_trace_capacity) {
    std::size_t want = handle_.trace_capacity();
    const std::uint64_t needed = period_dropped + want;
    while (want < cfg_.max_trace_capacity && want < needed) want *= 2;
    want = std::min(want, cfg_.max_trace_capacity);
    handle_.set_trace_capacity(want, meas::Scope::All, {}, clk);
    act = Action::GrowRing;
  }
  // Actuator 1: over either perturbation budget (or still losing with the
  // rings at their cap) -> sparse mask; calm again long enough -> dense.
  if ((hot || (lossy && act == Action::Hold)) &&
      cur_groups_ != cfg_.sparse_groups) {
    handle_.set_groups(cfg_.sparse_groups, clk);
    cur_groups_ = cfg_.sparse_groups;
    act = Action::MaskDown;
  } else if (act == Action::Hold && cur_groups_ != cfg_.dense_groups &&
             calm && calm_streak_ >= cfg_.calm_periods) {
    handle_.set_groups(cfg_.dense_groups, clk);
    cur_groups_ = cfg_.dense_groups;
    act = Action::MaskUp;
  }

  decision_log_.push_back(analysis::ControlDecision{
      machine_.engine().now(), period_cycles, period_wire, period_dropped,
      cur_groups_, handle_.trace_capacity(), act});
}

kernel::Program Adaptd::controller_program() {
  while (machine_.engine().now() < cfg_.until) {
    co_await kernel::SleepFor{cfg_.period};
    decide_once();
  }
}

}  // namespace ktau::clients
