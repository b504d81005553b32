// Table 4 reproduction: "Direct Overheads (cycles)" — the distribution of
// KTAU's per-probe start/stop cost.
//
// The simulated-testbed numbers: KTAU's own overhead tracking (the paper's
// "internal KTAU timing/overhead query utilities") during an instrumented
// LU run, in 450 MHz cycles.  Paper: start mean 244.4 / stddev 236.3 /
// min 160; stop mean 295.3 / 268.8 / 214.  Host microbenchmarks of the
// same probe hot path live in bench_probe_hotpath.cpp.
#include <vector>

#include "experiments/harness.hpp"
#include "experiments/perturb.hpp"

namespace ktau::expt {
namespace {

std::vector<TrialSpec> table4_trials(const ScenarioParams& p) {
  // Historical seed: the perturbation study's seed 42 for the one fully
  // instrumented LU run the direct-overhead numbers come from.
  const auto cfg = perturb_run_config(PerturbMode::ProfAllTau, 16, p.scale,
                                      p.seed(42), Workload::LU);
  return {{"profalltau_lu", [cfg] {
             auto run = run_chiba(cfg);
             return trial_result(
                 std::move(run),
                 {{"start_mean", run.overhead_start_mean},
                  {"start_stddev", run.overhead_start_stddev},
                  {"start_min", run.overhead_start_min},
                  {"stop_mean", run.overhead_stop_mean},
                  {"stop_stddev", run.overhead_stop_stddev},
                  {"stop_min", run.overhead_stop_min},
                  {"samples",
                   static_cast<double>(run.overhead_samples)}});
           }}};
}

void table4_report(Report& rep, const ScenarioParams&,
                   const std::vector<TrialResult>& results) {
  const auto& run = payload<ChibaRunResult>(results[0]);
  rep.printf("\n%-10s %10s %10s %10s   (paper)\n", "Operation", "Mean",
             "Std.Dev", "Min");
  rep.printf("%-10s %10.1f %10.1f %10.1f   (244.4 / 236.3 / 160)\n", "Start",
             run.overhead_start_mean, run.overhead_start_stddev,
             run.overhead_start_min);
  rep.printf("%-10s %10.1f %10.1f %10.1f   (295.3 / 268.8 / 214)\n", "Stop",
             run.overhead_stop_mean, run.overhead_stop_stddev,
             run.overhead_stop_min);
  rep.printf("samples: %llu probe firings\n",
             static_cast<unsigned long long>(run.overhead_samples));
  rep.gate("overhead distribution populated (samples > 0)",
           run.overhead_samples > 0);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "table4",
     .title = "Table 4: Direct Overheads (cycles), simulated 450 MHz "
              "testbed",
     .default_scale = 0.05,
     .order = 30,
     .trials = table4_trials,
     .report = table4_report});

}  // namespace
}  // namespace ktau::expt
