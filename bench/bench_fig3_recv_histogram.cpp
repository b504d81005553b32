// Figure 3 reproduction: histogram of MPI_Recv exclusive time across the
// 128 ranks of the 64x2 Anomaly LU run.
//
// Paper shape: most ranks cluster at large MPI_Recv times (waiting for the
// slow node); two left-most outliers — ranks 61 and 125, the ranks on the
// faulty node ccn10 — show far LOWER MPI_Recv time (their time went into
// preempted computation instead; the data is usually already there when
// they finally call MPI_Recv).
#include <algorithm>
#include <vector>

#include "analysis/render.hpp"
#include "experiments/harness.hpp"

namespace ktau::expt {
namespace {

std::vector<TrialSpec> fig3_trials(const ScenarioParams& p) {
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

void fig3_report(Report& rep, const ScenarioParams&,
                 const std::vector<TrialResult>& results) {
  const auto& run = payload<ChibaRunResult>(results[0]);

  const auto recvs =
      metric_of(run, [](const RankStats& rs) { return rs.recv_excl_sec; });
  const double max_v = *std::max_element(recvs.begin(), recvs.end());
  sim::Histogram hist(0.0, max_v * 1.0001, 16);
  for (const double v : recvs) hist.add(v);
  analysis::render_histogram(rep.out(), "MPI_Recv exclusive time", hist,
                             "seconds");

  // The anomaly ranks: 61 and 125 (co-located on the faulty node).
  std::vector<int> order(recvs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return recvs[a] < recvs[b]; });
  rep.printf("\nlowest MPI_Recv ranks: %d (%.2f s), %d (%.2f s)  "
             "[paper: 61, 125]\n",
             order[0], recvs[order[0]], order[1], recvs[order[1]]);
  rep.gate("faulty-node ranks are the two low outliers",
           (order[0] == 61 || order[0] == 125) &&
               (order[1] == 61 || order[1] == 125));

  // Their rhs routine runs longer than the median (the paper's second
  // observation about ranks 61/125).
  double med_exec = 0;
  {
    auto execs =
        metric_of(run, [](const RankStats& rs) { return rs.exec_sec; });
    std::sort(execs.begin(), execs.end());
    med_exec = execs[execs.size() / 2];
  }
  rep.printf("rank 61 exec %.2f s vs median %.2f s (anomaly ranks run the "
             "whole job; all ranks finish together in a coupled code)\n",
             run.ranks[61].exec_sec, med_exec);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "fig3",
     .title = "Figure 3: MPI_Recv exclusive time histogram "
              "(64x2 Anomaly, NPB LU)",
     .default_scale = kDefaultScale,
     .order = 41,
     .trials = fig3_trials,
     .report = fig3_report});

}  // namespace
}  // namespace ktau::expt
