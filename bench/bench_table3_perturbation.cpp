// Table 3 reproduction: "Perturbation: Total Exec. Time (secs)" — NPB LU
// under five instrumentation configurations, plus Sweep3D Base vs
// ProfAll+Tau.
//
// Paper values (LU class C, 16 nodes; % slowdown of the mean over 5 runs):
//   Base 470.8 | Ktau Off +0.01% | ProfAll +2.32% | ProfSched +0.07% |
//   ProfAll+Tau +2.82%
// Sweep3D (128 nodes): Base 368.25 -> ProfAll+Tau 369.9 (+0.49%).
#include <map>
#include <string>
#include <vector>

#include "experiments/harness.hpp"
#include "experiments/perturb.hpp"

namespace ktau::expt {
namespace {

constexpr PerturbMode kLuModes[] = {
    PerturbMode::Base, PerturbMode::KtauOff, PerturbMode::ProfAll,
    PerturbMode::ProfSched, PerturbMode::ProfAllTau};
constexpr PerturbMode kSweepModes[] = {PerturbMode::Base,
                                       PerturbMode::ProfAllTau};
constexpr int kLuReps = 5;
constexpr int kSweepReps = 2;
constexpr int kLuRanks = 16;
constexpr int kSweepRanks = 128;

// Historical seeds of the perturbation study (study seed 42): LU rep k uses
// 42 + 17k, Sweep3D rep k uses 42 + 29k.
std::vector<TrialSpec> table3_trials(const ScenarioParams& p) {
  std::vector<TrialSpec> trials;
  for (const PerturbMode mode : kLuModes) {
    for (int rep = 0; rep < kLuReps; ++rep) {
      const std::uint64_t seed = p.seed(42 + 17 * rep);
      trials.push_back(
          {"lu/" + perturb_name(mode) + "/rep" + std::to_string(rep),
           [mode, seed, scale = p.scale] {
             const double sec = perturb_single_run(mode, kLuRanks, scale,
                                                   seed, Workload::LU);
             return trial_result(sec, {{"exec_sec", sec}});
           }});
    }
  }
  for (const PerturbMode mode : kSweepModes) {
    for (int rep = 0; rep < kSweepReps; ++rep) {
      const std::uint64_t seed = p.seed(42 + 29 * rep);
      trials.push_back(
          {"sweep/" + perturb_name(mode) + "/rep" + std::to_string(rep),
           [mode, seed, scale = p.scale] {
             const double sec = perturb_single_run(
                 mode, kSweepRanks, scale, seed, Workload::Sweep3D);
             return trial_result(sec, {{"exec_sec", sec}});
           }});
    }
  }
  return trials;
}

void table3_report(Report& rep, const ScenarioParams&,
                   const std::vector<TrialResult>& results) {
  // Reassemble the per-mode summaries in the historical order (Base first,
  // so later modes get their slowdown relative to it).
  std::map<PerturbMode, PerturbSummary> lu, sweep;
  std::size_t idx = 0;
  for (const PerturbMode mode : kLuModes) {
    std::vector<double> runs;
    for (int rep = 0; rep < kLuReps; ++rep) {
      runs.push_back(payload<double>(results[idx++]));
    }
    const auto base_it = lu.find(PerturbMode::Base);
    lu[mode] = perturb_summarize(
        runs, base_it == lu.end() ? nullptr : &base_it->second);
  }
  for (const PerturbMode mode : kSweepModes) {
    std::vector<double> runs;
    for (int rep = 0; rep < kSweepReps; ++rep) {
      runs.push_back(payload<double>(results[idx++]));
    }
    const auto base_it = sweep.find(PerturbMode::Base);
    sweep[mode] = perturb_summarize(
        runs, base_it == sweep.end() ? nullptr : &base_it->second);
  }

  struct PaperRef {
    PerturbMode mode;
    double min_slow, avg_slow;
  };
  const PaperRef refs[] = {
      {PerturbMode::Base, 0.0, 0.0},
      {PerturbMode::KtauOff, 0.0, 0.01},
      {PerturbMode::ProfAll, 1.87, 2.32},
      {PerturbMode::ProfSched, 0.0, 0.07},
      {PerturbMode::ProfAllTau, 1.58, 2.82},
  };

  rep.printf("\nNPB LU (16 nodes):\n");
  rep.printf("%-12s | %9s %9s | %9s %9s | paper %%avg\n", "Metric", "Min",
             "%MinSlow", "Avg", "%AvgSlow");
  for (const auto& ref : refs) {
    const auto& s = lu.at(ref.mode);
    rep.printf("%-12s | %9.2f %8.2f%% | %9.2f %8.2f%% | %8.2f%%\n",
               perturb_name(ref.mode).c_str(), s.min_sec, s.min_slow_pct,
               s.avg_sec, s.avg_slow_pct, ref.avg_slow);
  }

  rep.printf("\nASCI Sweep3D (128 nodes):\n");
  const auto& sb = sweep.at(PerturbMode::Base);
  const auto& st = sweep.at(PerturbMode::ProfAllTau);
  rep.printf("  Base avg %.2f s, ProfAll+Tau avg %.2f s -> +%.2f%% "
             "(paper +0.49%%)\n",
             sb.avg_sec, st.avg_sec, st.avg_slow_pct);

  const auto& off = lu.at(PerturbMode::KtauOff);
  const auto& all = lu.at(PerturbMode::ProfAll);
  const auto& sched = lu.at(PerturbMode::ProfSched);
  const auto& alltau = lu.at(PerturbMode::ProfAllTau);
  rep.printf("\nshape checks (LU slowdowns: KtauOff %.3f%%, ProfSched "
             "%.3f%%, ProfAll %.2f%%, ProfAll+Tau %.2f%%):\n",
             off.avg_slow_pct, sched.avg_slow_pct, all.avg_slow_pct,
             alltau.avg_slow_pct);
  rep.gate("Ktau Off statistically free (<0.3%)", off.avg_slow_pct < 0.3);
  rep.gate("ProfSched nearly free (<0.5%)", sched.avg_slow_pct < 0.5);
  rep.gate("ProfAll small single-digit %",
           all.avg_slow_pct > 0.5 && all.avg_slow_pct < 8.0);
  rep.gate("ProfAll+Tau >= ProfAll",
           alltau.avg_slow_pct >= all.avg_slow_pct * 0.9);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "table3",
     .title = "Table 3: perturbation — total exec. time (secs)",
     .default_scale = kDefaultScale,
     .order = 20,
     .trials = table3_trials,
     .report = table3_report});

}  // namespace
}  // namespace ktau::expt
