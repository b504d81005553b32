#include "tau/profiler.hpp"

#include <stdexcept>

namespace ktau::tau {

Profiler::Profiler(kernel::Machine& machine, kernel::Task& task, TauConfig cfg)
    : machine_(machine), task_(task), cfg_(cfg) {}

FuncId Profiler::reg(std::string_view name) {
  const auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) return it->second;
  const auto id = static_cast<FuncId>(names_.size());
  names_.emplace_back(name);
  // Register the routine with the kernel's event registry under the User
  // group so kernel-side bridge rows can name it (merged views).
  ktau_ids_.push_back(machine_.ktau().map_event(name, meas::Group::User));
  metrics_.emplace_back();
  by_name_.emplace(std::string(name), id);
  return id;
}

FuncId Profiler::find(std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    throw std::out_of_range("tau::Profiler: unknown function " +
                            std::string(name));
  }
  return it->second;
}

meas::CpuClock& Profiler::clock() {
  if (task_.cpu == nullptr) {
    throw std::logic_error(
        "tau::Profiler used while its task is not running (enter/exit must "
        "be called from the task's own program code)");
  }
  return task_.cpu->clock;
}

void Profiler::set_kernel_user_context() {
  task_.prof.set_user_context(stack_.empty() ? meas::kNoEventId
                                             : ktau_ids_[stack_.back().func]);
}

void Profiler::enter(FuncId f) {
  if (!cfg_.enabled) return;
  meas::CpuClock& clk = clock();
  const sim::Cycles now = clk.now_cycles();
  stack_.push_back(Frame{f, now, 0});
  set_kernel_user_context();
  if (cfg_.tracing) trace_.push_back({clk.cursor, f, true});
  if (cfg_.charge_overhead) {
    clk.consume_cycles(static_cast<sim::Cycles>(
        cfg_.enter_cycles * (1 + cfg_.inner_pairs)));
  }
}

void Profiler::exit(FuncId f) {
  if (!cfg_.enabled) return;
  if (stack_.empty() || stack_.back().func != f) {
    throw std::logic_error("tau::Profiler: unbalanced enter/exit for " +
                           names_.at(f));
  }
  meas::CpuClock& clk = clock();
  const sim::Cycles now = clk.now_cycles();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const sim::Cycles incl = now - frame.start;
  const sim::Cycles excl = incl >= frame.child ? incl - frame.child : 0;
  FuncMetrics& m = metrics_[f];
  ++m.count;
  m.incl += incl;
  m.excl += excl;
  if (!stack_.empty()) stack_.back().child += incl;
  set_kernel_user_context();
  if (cfg_.tracing) trace_.push_back({clk.cursor, f, false});
  if (cfg_.charge_overhead) {
    clk.consume_cycles(static_cast<sim::Cycles>(
        cfg_.exit_cycles * (1 + cfg_.inner_pairs)));
  }
}

}  // namespace ktau::tau
