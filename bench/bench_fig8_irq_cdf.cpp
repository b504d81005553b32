// Figure 8 reproduction: "IRQ Activity (CDF)" — interrupt time experienced
// per MPI rank under the LU configurations.
//
// Paper shape: "64x2 Pinned" is prominently bimodal — without irq
// balancing every interrupt lands on CPU0, so the half of the ranks pinned
// there absorb virtually all interrupt time while CPU1 ranks absorb almost
// none.  Enabling irq balancing (Pin,I-Bal) collapses the two modes.
#include <algorithm>
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
    {ChibaConfig::C64x2, "64x2"},
    {ChibaConfig::C64x2Pinned, "64x2 Pinned"},
};

std::vector<TrialSpec> fig8_trials(const ScenarioParams& p) {
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

void fig8_report(Report& rep, const ScenarioParams&,
                 const std::vector<TrialResult>& results) {
  std::map<std::string, sim::Cdf> irq;
  for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
    const auto& run = payload<ChibaRunResult>(results[i]);
    irq[kConfigs[i].second] = cdf_of(metric_of(
        run, [](const RankStats& rs) { return rs.irq_sec * 1e6; }));
  }

  analysis::render_cdfs(rep.out(), "IRQ Activity (CDF)",
                        "interrupt time per rank (microseconds)", irq);

  // Bimodality check for 64x2 Pinned: the low half (CPU1 ranks) vs the
  // high half (CPU0 ranks) differ by a large factor.
  const auto& pinned = irq.at("64x2 Pinned");
  const double p25 = pinned.quantile(0.25);
  const double p75 = pinned.quantile(0.75);
  rep.printf("\n64x2 Pinned p25 %.0f us vs p75 %.0f us (ratio %.1f)\n", p25,
             p75, p25 > 0 ? p75 / p25 : 0.0);
  rep.gate("bimodal irq distribution when pinned without balancing",
           p75 > 5 * std::max(p25, 1.0));

  const auto& balanced = irq.at("64x2 Pinned,I-Bal");
  const double spread_pinned = p75 - p25;
  const double spread_bal = balanced.quantile(0.75) - balanced.quantile(0.25);
  rep.printf("irq balancing IQR %.0f -> %.0f us\n", spread_pinned,
             spread_bal);
  rep.gate("irq balancing collapses the modes", spread_bal < spread_pinned);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "fig8",
     .title = "Figure 8: interrupt activity CDF (NPB LU)",
     .default_scale = kDefaultScale,
     .order = 45,
     .trials = fig8_trials,
     .report = fig8_report});

}  // namespace
}  // namespace ktau::expt
