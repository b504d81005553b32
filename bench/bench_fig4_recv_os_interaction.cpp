// Figure 4 reproduction: "MPI Recv OS Interactions" — the kernel call
// groups active during MPI_Recv, comparing the mean across all ranks with
// MPI ranks 125 and 61 (the faulty-node ranks).
//
// Paper shape: on average most of MPI_Recv is spent inside scheduling
// (waiting for the slow node), but comparatively less for ranks 125 and 61
// themselves.
#include <map>
#include <string>
#include <vector>

#include "analysis/render.hpp"
#include "experiments/harness.hpp"

namespace ktau::expt {
namespace {

std::vector<TrialSpec> fig4_trials(const ScenarioParams& p) {
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

void fig4_report(Report& rep, const ScenarioParams&,
                 const std::vector<TrialResult>& results) {
  const auto& run = payload<ChibaRunResult>(results[0]);

  // Fold the per-rank (group -> seconds inside MPI_Recv) maps.
  std::map<meas::Group, double> mean;
  for (const auto& rs : run.ranks) {
    for (const auto& [g, sec] : rs.recv_groups) mean[g] += sec;
  }
  for (auto& [g, sec] : mean) sec /= static_cast<double>(run.ranks.size());

  auto bar_rows = [](const std::map<meas::Group, double>& groups) {
    std::vector<std::pair<std::string, double>> rows;
    for (const auto& [g, sec] : groups) {
      rows.emplace_back(std::string(meas::group_name(g)), sec);
    }
    return rows;
  };

  analysis::render_bars(rep.out(), "mean across all ranks", bar_rows(mean));
  analysis::render_bars(rep.out(), "rank 125",
                        bar_rows(run.ranks[125].recv_groups));
  analysis::render_bars(rep.out(), "rank 61",
                        bar_rows(run.ranks[61].recv_groups));

  const double mean_sched = mean.count(meas::Group::Sched) != 0
                                ? mean.at(meas::Group::Sched)
                                : 0.0;
  auto sched_of = [](const RankStats& rs) {
    const auto it = rs.recv_groups.find(meas::Group::Sched);
    return it == rs.recv_groups.end() ? 0.0 : it->second;
  };
  rep.printf("\nscheduling inside MPI_Recv: mean %.2f s, rank125 %.2f s, "
             "rank61 %.2f s\n",
             mean_sched, sched_of(run.ranks[125]), sched_of(run.ranks[61]));
  rep.gate("faulty-node ranks below the mean (paper shape)",
           sched_of(run.ranks[125]) < mean_sched &&
               sched_of(run.ranks[61]) < mean_sched);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "fig4",
     .title = "Figure 4: MPI_Recv kernel call groups (64x2 Anomaly, NPB LU)",
     .default_scale = kDefaultScale,
     .order = 42,
     .trials = fig4_trials,
     .report = fig4_report});

}  // namespace
}  // namespace ktau::expt
