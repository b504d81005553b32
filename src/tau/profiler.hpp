// User-level measurement: the TAU side of the KTAU+TAU integration.
//
// TAU instruments *user* routines (application functions, MPI wrappers).
// In this reproduction a Profiler lives with each simulated process; the
// program's coroutine body calls enter()/exit() around its phases exactly
// where source instrumentation would sit.  Timestamps come from the CPU the
// task is running on — i.e. wall-clock-style timing that *includes* kernel,
// interrupt, and switched-out time, which is precisely why the paper's
// merged user/kernel view is needed to compute "true" exclusive time
// (Figure 2-D).
//
// Integration with KTAU: on every enter/exit the profiler updates the
// task's KTAU user-context (the innermost active user event, registered in
// the kernel's event registry under Group::User).  The kernel measurement
// system then attributes kernel events to that user context, yielding the
// (user event x kernel event) bridge matrix behind Figures 4 and 9.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kernel/cpu.hpp"
#include "kernel/machine.hpp"
#include "kernel/task.hpp"
#include "sim/time.hpp"

namespace ktau::tau {

/// Dense user-function id within one Profiler.
using FuncId = std::uint32_t;

struct TauConfig {
  /// Master switch: a disabled profiler records nothing and costs nothing
  /// (the paper's "ProfAll" vs "ProfAll+Tau" distinction).
  bool enabled = true;
  /// Charge user-level instrumentation cost to simulated time.
  bool charge_overhead = true;
  double enter_cycles = 180.0;
  double exit_cycles = 210.0;
  /// Hidden instrumentation density: each modelled routine stands for this
  /// many additional instrumented user routines (TAU instruments every
  /// function when built with full source instrumentation); their probe
  /// cost is charged without separate profile rows.  See DESIGN.md §4.
  std::uint32_t inner_pairs = 0;
  /// Record an event log (user-side trace) for merged timelines (Fig 2-E).
  bool tracing = false;

  bool operator==(const TauConfig&) const = default;
};

/// Per-function profile row.
struct FuncMetrics {
  std::uint64_t count = 0;
  sim::Cycles incl = 0;
  sim::Cycles excl = 0;
};

struct UserTraceRecord {
  sim::TimeNs timestamp = 0;
  FuncId func = 0;
  bool is_enter = true;
};

class Profiler {
 public:
  /// `machine` is the node the task runs on (for KTAU registry access);
  /// `task` is the instrumented process.  Both must outlive the profiler's
  /// use during the simulation.
  Profiler(kernel::Machine& machine, kernel::Task& task, TauConfig cfg = {});

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Registers a user routine (TAU's FunctionInfo creation).  Idempotent
  /// per name; typically called once while building the program.
  FuncId reg(std::string_view name);

  /// Registers a routine as a *phase* (paper §6 future work: "phase-based
  /// profiling").  A phase behaves like a routine, but while it is active
  /// every routine's metrics are additionally accumulated under it, so
  /// analysis can ask "how did solve() behave during the init phase vs the
  /// iterate phase".
  FuncId reg_phase(std::string_view name);
  bool is_phase(FuncId f) const { return is_phase_.at(f); }

  /// Enter/exit a user routine.  Must be called from the task's own program
  /// code (i.e. while the task is running).
  void enter(FuncId f);
  void exit(FuncId f);

  // -- results (read after the simulation) ----------------------------------

  const std::string& name(FuncId f) const { return names_.at(f); }
  std::size_t func_count() const { return names_.size(); }
  const FuncMetrics& metrics(FuncId f) const { return metrics_.at(f); }
  FuncId find(std::string_view name) const;  // throws if unknown

  /// KTAU event-registry id (Group::User) for a user routine, usable to
  /// look up rows of the kernel profile's bridge matrix.
  meas::EventId ktau_event(FuncId f) const { return ktau_ids_.at(f); }

  /// Sentinel phase id for activity outside any registered phase.
  static constexpr FuncId kNoPhase = 0xFFFFFFFFu;

  /// Metrics of routine `f` while phase `phase` was the innermost active
  /// phase (kNoPhase for top-level activity).  Zeroed metrics if the
  /// combination never occurred.
  const FuncMetrics& phase_metrics(FuncId phase, FuncId f) const;

  /// All (phase, routine) combinations that occurred.
  const std::unordered_map<std::uint64_t, FuncMetrics>& phase_table() const {
    return phase_metrics_;
  }

  const std::vector<UserTraceRecord>& trace() const { return trace_; }

  std::size_t stack_depth() const { return stack_.size(); }

  const TauConfig& config() const { return cfg_; }
  kernel::Task& task() { return task_; }

 private:
  struct Frame {
    FuncId func;
    sim::Cycles start;
    sim::Cycles child;
    FuncId enclosing_phase;  // innermost phase active at entry
  };

  /// Innermost active phase (kNoPhase if none).
  FuncId current_phase() const;

  meas::CpuClock& clock();
  void set_kernel_user_context();

  kernel::Machine& machine_;
  kernel::Task& task_;
  TauConfig cfg_;

  std::vector<std::string> names_;
  std::vector<meas::EventId> ktau_ids_;
  std::unordered_map<std::string, FuncId> by_name_;
  std::vector<FuncMetrics> metrics_;
  std::vector<bool> is_phase_;
  std::unordered_map<std::uint64_t, FuncMetrics> phase_metrics_;
  std::vector<Frame> stack_;
  std::vector<UserTraceRecord> trace_;
};

/// RAII helper for enter/exit pairs in program code.
class Scope {
 public:
  Scope(Profiler& prof, FuncId f) : prof_(prof), f_(f) { prof_.enter(f_); }
  ~Scope() { prof_.exit(f_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Profiler& prof_;
  FuncId f_;
};

}  // namespace ktau::tau
