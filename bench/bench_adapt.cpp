// The closed measurement-control loop (DESIGN.md §12): a bursty node where
// no static KTAU configuration fits, and the adaptd controller steering the
// runtime group mask and the trace-ring capacity keeps both the
// perturbation and the loss story bounded.
//
// Workload: one 1-CPU node, a wall of slow sleeper daemons (blocked in
// sys_nanosleep across the controller's mask flips — exactly the mid-run
// flip case the KtauSystem::exit pairing fix covers, in both directions),
// and a bursty app that sleeps quietly then hammers syscalls.  Tracing is
// on for all groups with a deliberately small initial ring.
//
// Static extremes, each violating one budget:
//   - dense  (all groups, small ring): every burst overflows the ring —
//     run loss far over budget;
//   - sparse (Sched|Irq only): cheap, lossless, and blind — zero Syscall
//     trace records, the bursts are simply never seen.
// The controller starts dense, grows the ring to what the first burst
// needed, sheds the mask while hot, and restores it after the calm
// hysteresis — so every later burst is captured densely and losslessly.
//
// Shape checks (PASS/FAIL gates; exit code = number of FAILs):
//   - dense static overruns the run loss budget, sparse misses the bursts;
//   - the controller bounds loss within the budget (first burst only) and
//     preserves full Syscall coverage of every later burst;
//   - every over-budget or lossy decision period draws a non-Hold reaction;
//   - both actuators fire: mask down AND up (the flip-pairing regression
//     surface), ring grown;
//   - the controller run is bit-identical across two executions, decision
//     log included.
#include <algorithm>
#include <string>
#include <vector>

#include "analysis/control.hpp"
#include "apps/daemons.hpp"
#include "clients/adaptd.hpp"
#include "experiments/harness.hpp"
#include "kernel/cluster.hpp"
#include "libktau/libktau.hpp"

namespace ktau::expt {
namespace {

constexpr int kBursts = 4;
constexpr std::size_t kInitialRing = 256;

struct AdaptRun {
  std::uint64_t dropped = 0;          // counted trace loss, whole run
  std::uint64_t syscall_records = 0;  // Syscall-group records observed
  std::uint64_t total_records = 0;
  std::uint64_t probe_cycles = 0;  // kernel-side measurement perturbation
  std::uint64_t wire_bytes = 0;    // extraction wire moved by the daemon
  std::uint64_t final_capacity = 0;
  std::uint64_t decisions = 0;
  std::string log;  // rendered decision rows (empty when control is off)
  bool reacted_every_violation = true;
  bool mask_down = false;
  bool mask_up = false;
};

kernel::Program bursty_program(kernel::Machine& m, int iters) {
  // Burst starts are pinned to absolute times 50 ms past an even second —
  // comfortably inside one 250 ms decision period at every scale (a burst
  // is ~10 ms at scale 0.1, ~100 ms at 1.0).  A burst straddling a decision
  // boundary would be truncated by the controller's own mask-down, turning
  // the coverage gate into a phase accident instead of a property.
  for (int b = 0; b < kBursts; ++b) {
    const sim::TimeNs start =
        (2 * b + 2) * sim::kSecond + 50 * sim::kMillisecond;
    co_await kernel::SleepFor{start - m.engine().now()};
    for (int i = 0; i < iters; ++i) {
      co_await kernel::Compute{5 * sim::kMicrosecond};
      co_await kernel::NullSyscall{};
    }
  }
  // Outlive the horizon: a reaped task's ring is gone before the daemon's
  // next drain, which would silently hide the final burst from the census.
  co_await kernel::SleepFor{60 * sim::kSecond};
}

AdaptRun run_scenario(double scale, meas::GroupMask static_mask,
                      bool control) {
  const int iters = std::max(200, static_cast<int>(4000 * scale));
  const sim::TimeNs horizon = 10 * sim::kSecond;
  // Fixed daemon population (not scaled): they exist to hold open
  // sys_nanosleep/schedule_vol frames across the mask flips and to supply a
  // scale-independent quiet-period floor the calm hysteresis can rely on.
  const int daemons = 12;

  kernel::Cluster cluster;
  kernel::MachineConfig mcfg;
  mcfg.cpus = 1;
  mcfg.ktau.tracing = true;
  mcfg.ktau.trace_capacity = kInitialRing;
  mcfg.ktau.runtime_enabled = static_mask;
  kernel::Machine& m = cluster.add_machine(mcfg);

  for (int d = 0; d < daemons; ++d) {
    apps::DaemonParams dp;
    dp.period = 2 * sim::kSecond;
    dp.burst = 1 * sim::kMillisecond;
    dp.until = horizon;
    dp.phase = (d * 2 * sim::kSecond) / daemons;
    apps::spawn_daemon(m, dp, "sleeper-" + std::to_string(d));
  }

  kernel::Task& app = m.spawn("bursty");
  app.program = bursty_program(m, iters);
  m.launch(app);

  clients::AdaptdConfig acfg;
  acfg.period = 250 * sim::kMillisecond;
  acfg.until = horizon;
  acfg.observe_traces = true;  // census + loss signal in every mode
  acfg.control = control;
  // Per-period budgets: bursts blow the cycle budget at every scale
  // (iters * ~700 cycles of probe draws), quiet periods sit well under a
  // quarter of it (fixed daemon floor), so hot/calm classify sharply.
  acfg.cycles_budget = 60'000;
  acfg.wire_budget = 1024 * 1024;
  acfg.loss_budget = 0;
  acfg.max_trace_capacity = 65'536;
  clients::Adaptd adaptd(m, acfg);

  cluster.run_until(horizon);

  AdaptRun out;
  out.dropped = adaptd.observed_trace_dropped();
  out.syscall_records = adaptd.observed_group_records(meas::Group::Syscall);
  out.total_records = adaptd.observed_trace_records();
  out.wire_bytes = adaptd.observed_wire_bytes();
  out.decisions = adaptd.decisions();

  user::KtauHandle handle(m.proc());
  out.probe_cycles = handle.overhead().total_cycles;
  out.final_capacity = handle.trace_capacity();

  if (control) {
    using Action = analysis::ControlDecision::Action;
    const auto& log = adaptd.decision_log();
    out.log = analysis::control_decisions_to_string(log);
    for (const analysis::ControlDecision& d : log) {
      out.mask_down = out.mask_down || d.action == Action::MaskDown;
      out.mask_up = out.mask_up || d.action == Action::MaskUp;
      const bool violated = d.probe_cycles > acfg.cycles_budget ||
                            d.wire_bytes > acfg.wire_budget ||
                            d.trace_dropped > acfg.loss_budget;
      // A violation must draw a reaction unless the actuators are already
      // at their limit (mask already sparse and ring already grown/capped).
      if (violated && d.action == Action::Hold &&
          d.groups != acfg.sparse_groups) {
        out.reacted_every_violation = false;
      }
    }
  }
  return out;
}

TrialSpec adapt_trial(std::string name, double scale,
                      meas::GroupMask static_mask, bool control) {
  return {std::move(name), [scale, static_mask, control] {
            auto run = run_scenario(scale, static_mask, control);
            return trial_result(
                std::move(run),
                {{"dropped", static_cast<double>(run.dropped)},
                 {"syscall_records",
                  static_cast<double>(run.syscall_records)},
                 {"probe_cycles", static_cast<double>(run.probe_cycles)},
                 {"wire_bytes", static_cast<double>(run.wire_bytes)},
                 {"final_capacity",
                  static_cast<double>(run.final_capacity)},
                 {"decisions", static_cast<double>(run.decisions)}});
          }};
}

std::vector<TrialSpec> adapt_trials(const ScenarioParams& p) {
  // Fully deterministic workload: the repeated controller trial re-checks
  // determinism (decision log included) instead of varying a seed.
  const meas::GroupMask sparse = meas::Group::Sched | meas::Group::Irq;
  return {adapt_trial("dense", p.scale, meas::kAllGroups, false),
          adapt_trial("sparse", p.scale, sparse, false),
          adapt_trial("ctrl", p.scale, meas::kAllGroups, true),
          adapt_trial("ctrl2", p.scale, meas::kAllGroups, true)};
}

void adapt_report(Report& rep, const ScenarioParams& p,
                  const std::vector<TrialResult>& results) {
  const auto& dense = payload<AdaptRun>(results[0]);
  const auto& sparse = payload<AdaptRun>(results[1]);
  const auto& ctrl = payload<AdaptRun>(results[2]);
  const auto& ctrl2 = payload<AdaptRun>(results[3]);

  const std::uint64_t iters =
      static_cast<std::uint64_t>(std::max(200, static_cast<int>(4000 * p.scale)));
  // Run-level budgets as functions of the burst size: the loss budget
  // admits (only) the first burst's ring overflow, the coverage floor is
  // every post-adaptation burst shipped in full.
  const std::uint64_t loss_budget = 2 * iters + iters / 2;
  const std::uint64_t coverage_floor = (kBursts - 1) * 2 * iters;

  rep.printf("\nrun loss budget %llu records, coverage floor %llu Syscall "
             "records (%d bursts x %llu syscalls)\n",
             static_cast<unsigned long long>(loss_budget),
             static_cast<unsigned long long>(coverage_floor), kBursts,
             static_cast<unsigned long long>(iters));
  rep.printf("dense : dropped %8llu  syscall-records %8llu  probe-cycles "
             "%12llu  ring %llu\n",
             static_cast<unsigned long long>(dense.dropped),
             static_cast<unsigned long long>(dense.syscall_records),
             static_cast<unsigned long long>(dense.probe_cycles),
             static_cast<unsigned long long>(dense.final_capacity));
  rep.printf("sparse: dropped %8llu  syscall-records %8llu  probe-cycles "
             "%12llu  ring %llu\n",
             static_cast<unsigned long long>(sparse.dropped),
             static_cast<unsigned long long>(sparse.syscall_records),
             static_cast<unsigned long long>(sparse.probe_cycles),
             static_cast<unsigned long long>(sparse.final_capacity));
  rep.printf("ctrl  : dropped %8llu  syscall-records %8llu  probe-cycles "
             "%12llu  ring %llu\n",
             static_cast<unsigned long long>(ctrl.dropped),
             static_cast<unsigned long long>(ctrl.syscall_records),
             static_cast<unsigned long long>(ctrl.probe_cycles),
             static_cast<unsigned long long>(ctrl.final_capacity));
  rep.printf("controller decisions (%llu periods):\n%s\n",
             static_cast<unsigned long long>(ctrl.decisions),
             ctrl.log.c_str());

  rep.gate("dense static overruns the run loss budget",
           dense.dropped > loss_budget);
  rep.gate("sparse static misses the bursts entirely",
           sparse.syscall_records == 0 && dense.syscall_records > 0 &&
               sparse.dropped == 0);
  rep.gate("controller bounds loss within the run budget",
           ctrl.dropped <= loss_budget && ctrl.dropped > 0);
  rep.gate("controller preserves full coverage of post-adaptation bursts",
           ctrl.syscall_records >= coverage_floor);
  rep.gate("every over-budget or lossy period draws a reaction",
           ctrl.reacted_every_violation && ctrl.decisions > 30);
  rep.gate("both actuators fired: mask down and up, ring grown",
           ctrl.mask_down && ctrl.mask_up &&
               ctrl.final_capacity > kInitialRing);
  rep.gate("controller run is deterministic (decision log included)",
           ctrl.log == ctrl2.log && ctrl.dropped == ctrl2.dropped &&
               ctrl.syscall_records == ctrl2.syscall_records &&
               ctrl.probe_cycles == ctrl2.probe_cycles &&
               ctrl.wire_bytes == ctrl2.wire_bytes &&
               ctrl.final_capacity == ctrl2.final_capacity);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "adapt",
     .title = "Closed measurement-control loop: adaptd steering the group "
              "mask and trace-ring capacity on a bursty node",
     .default_scale = kDefaultScale,
     .order = 63,
     .trials = adapt_trials,
     .report = adapt_report});

}  // namespace
}  // namespace ktau::expt
