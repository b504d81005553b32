// The perturbation study (paper §5.3, Tables 3 and 4), as the pieces the
// `table3` and `table4` scenarios split into independent trials.
//
// NPB LU (class-C-like, 16 nodes) runs under five instrumentation
// configurations — Base, Ktau Off, ProfAll, ProfSched, ProfAll+Tau — with
// several repetitions each; perturb_summarize reports min/avg execution
// times and the percentage slowdown relative to Base (clamped at 0, as the
// paper does when an instrumented run happens to beat the baseline).  A
// ProfAll+Tau run's self-measurement gives KTAU's direct per-probe
// overhead distribution (Table 4).
#pragma once

#include <vector>

#include "experiments/chiba.hpp"

namespace ktau::expt {

struct PerturbSummary {
  double min_sec = 0;
  double avg_sec = 0;
  /// %slowdown of min/avg vs Base's min/avg, clamped at 0.
  double min_slow_pct = 0;
  double avg_slow_pct = 0;
  std::vector<double> runs_sec;
};

/// The LU-16 workload definition calibrated so the Base configuration runs
/// ~470 simulated seconds at scale 1.0 (Table 3's baseline).
apps::LuParams perturb_lu_params(int ranks, double scale,
                                 std::uint64_t seed);

/// Executes a single timed run; exposed for tests.
double perturb_single_run(PerturbMode mode, int ranks, double scale,
                          std::uint64_t seed, Workload workload);

/// The ChibaRunConfig a single perturbation-study run uses — exposed so
/// the table3/table4 scenarios can decompose the study into independent
/// parallel trials and reassemble the summaries afterwards.
ChibaRunConfig perturb_run_config(PerturbMode mode, int ranks, double scale,
                                  std::uint64_t seed, Workload workload);

/// Folds individual run times into the study's min/avg/%slowdown summary
/// (slowdowns are relative to `base`; pass nullptr for the Base row).
PerturbSummary perturb_summarize(const std::vector<double>& runs_sec,
                                 const PerturbSummary* base);

}  // namespace ktau::expt
