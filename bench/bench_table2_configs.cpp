// Table 2 reproduction: "Exec. Time (secs) and % Slowdown from 128x1
// Configuration" for NPB LU and ASCI Sweep3D across the five Chiba-City
// cluster configurations.
//
// Paper values (for shape comparison):
//   NPB LU:    128x1 295.6 | Anomaly +73.2% | 64x2 +36.1% | Pinned +31.7%
//              | Pin,I-Bal +13.6%
//   Sweep3D:   128x1 369.9 | Anomaly +72.8% | 64x2 +15.9% | Pinned +15.6%
//              | Pin,I-Bal +9.4%
#include <string>

#include "experiments/harness.hpp"

namespace ktau::expt {
namespace {

struct PaperRow {
  const char* name;
  double lu_pct;
  double sweep_pct;
};

constexpr PaperRow kPaper[] = {
    {"128x1", 0.0, 0.0},
    {"64x2 Anomaly", 73.2, 72.8},
    {"64x2", 36.1, 15.9},
    {"64x2 Pinned", 31.7, 15.6},
    {"64x2 Pin,I-Bal", 13.6, 9.4},
};

constexpr ChibaConfig kConfigs[] = {
    ChibaConfig::C128x1, ChibaConfig::C64x2Anomaly, ChibaConfig::C64x2,
    ChibaConfig::C64x2Pinned, ChibaConfig::C64x2PinIbal};

std::vector<TrialSpec> table2_trials(const ScenarioParams& p) {
  std::vector<TrialSpec> trials;
  for (int w = 0; w < 2; ++w) {
    const Workload workload = w == 0 ? Workload::LU : Workload::Sweep3D;
    for (int c = 0; c < 5; ++c) {
      ChibaRunConfig cfg;
      cfg.config = kConfigs[c];
      cfg.workload = workload;
      cfg.scale = p.scale;
      cfg.seed = p.seed(cfg.seed);
      trials.push_back(
          {std::string(w == 0 ? "LU/" : "Sweep3D/") + config_name(kConfigs[c]),
           [p, cfg] {
             const auto run = p.chiba_run(cfg);
             return trial_result(
                 run->exec_sec,
                 {{"exec_sec", run->exec_sec},
                  {"engine_events", static_cast<double>(run->engine_events)}});
           }});
    }
  }
  return trials;
}

void table2_report(Report& rep, const ScenarioParams&,
                   const std::vector<TrialResult>& results) {
  double exec[2][5];
  for (int w = 0; w < 2; ++w) {
    for (int c = 0; c < 5; ++c) exec[w][c] = payload<double>(results[w * 5 + c]);
  }

  rep.printf("\n%-18s | %12s %10s %10s | %12s %10s %10s\n", "Config",
             "LU exec(s)", "%diff", "paper%", "Sw3D exec(s)", "%diff",
             "paper%");
  rep.printf("%s\n", std::string(96, '-').c_str());
  for (int c = 0; c < 5; ++c) {
    const double lu_pct = (exec[0][c] - exec[0][0]) / exec[0][0] * 100.0;
    const double sw_pct = (exec[1][c] - exec[1][0]) / exec[1][0] * 100.0;
    rep.printf("%-18s | %12.2f %9.1f%% %9.1f%% | %12.2f %9.1f%% %9.1f%%\n",
               kPaper[c].name, exec[0][c], lu_pct, kPaper[c].lu_pct,
               exec[1][c], sw_pct, kPaper[c].sweep_pct);
  }

  // 64x2 vs 64x2 Pinned is within noise in the paper too (Sweep3D: 428.96
  // vs 427.9, a 0.25% gap); allow a 1% tolerance on that comparison.
  auto ordered = [&](int w) {
    return exec[w][1] > exec[w][2] && exec[w][2] >= exec[w][3] * 0.99 &&
           exec[w][3] > exec[w][4] && exec[w][4] > exec[w][0];
  };
  rep.printf("\n");
  rep.gate(
      "shape checks: ordering Anomaly > 64x2 >~ Pinned > Pin,I-Bal > 128x1 "
      "for both workloads",
      ordered(0) && ordered(1));
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "table2",
     .title = "Table 2: Exec. Time (secs) and % Slowdown from 128x1 "
              "Configuration",
     .default_scale = kDefaultScale,
     .order = 10,
     .trials = table2_trials,
     .report = table2_report});

}  // namespace
}  // namespace ktau::expt
