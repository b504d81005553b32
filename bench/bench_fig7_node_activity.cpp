// Figure 7 reproduction: "Node ccn10 OS Activity" — per-process activity on
// the faulty node during the 64x2 Anomaly LU run, from the kernel-wide
// KTAU view of that node.
//
// Paper shape: the two LU tasks dominate; every other process (daemons,
// kernel threads) shows minuscule execution time — which is what
// invalidated the "daemon interference" hypothesis and pointed at the LU
// tasks preempting each other.
#include <algorithm>
#include <string>
#include <vector>

#include "analysis/render.hpp"
#include "analysis/views.hpp"
#include "experiments/harness.hpp"

namespace ktau::expt {
namespace {

std::vector<TrialSpec> fig7_trials(const ScenarioParams& p) {
  ChibaRunConfig cfg;
  cfg.config = ChibaConfig::C64x2Anomaly;
  cfg.workload = Workload::LU;
  cfg.scale = p.scale;
  cfg.seed = p.seed(cfg.seed);
  return {{"anomaly_lu", [p, cfg] {
             const auto run = p.chiba_run(cfg);
             return trial_result(run, {{"exec_sec", run->exec_sec}});
           }}};
}

void fig7_report(Report& rep, const ScenarioParams&,
                 const std::vector<TrialResult>& results) {
  const auto& run = payload<ChibaRunResult>(results[0]);
  rep.printf("spotlight node: ccn%u\n\n", run.spotlight_node_id);

  // Per-process total kernel activity (exclusive seconds, non-Sched groups
  // count as "execution"; Sched inclusive time is wait, shown separately).
  std::vector<std::pair<std::string, double>> activity;
  for (const auto& task : run.spotlight_node.tasks) {
    double busy = 0;
    for (const auto& [g, sec] :
         analysis::group_breakdown(run.spotlight_node, task)) {
      if (g != meas::Group::Sched) busy += sec;
    }
    activity.emplace_back(task.name + " (pid " + std::to_string(task.pid) +
                              ")",
                          busy);
  }
  std::sort(activity.begin(), activity.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  analysis::render_bars(rep.out(),
                        "kernel activity per process (excl. scheduling)",
                        activity);

  // Shape: the two LU ranks dominate; daemons are tiny.
  double lu_total = 0, daemon_total = 0;
  for (const auto& [name, sec] : activity) {
    if (name.rfind("lu.", 0) == 0) {
      lu_total += sec;
    } else if (name.rfind("swapper", 0) != 0) {
      daemon_total += sec;
    }
  }
  rep.printf("\nLU tasks total %.2f s vs all daemons %.3f s\n", lu_total,
             daemon_total);
  rep.gate("no significant daemon activity (paper's conclusion)",
           daemon_total < 0.05 * lu_total);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "fig7",
     .title = "Figure 7: faulty-node (ccn10) per-process OS activity "
              "(64x2 Anomaly, NPB LU)",
     .default_scale = kDefaultScale,
     .order = 44,
     .trials = fig7_trials,
     .report = fig7_report});

}  // namespace
}  // namespace ktau::expt
