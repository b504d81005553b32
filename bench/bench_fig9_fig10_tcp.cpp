// Figures 9 and 10 reproduction: kernel-level TCP behaviour under Sweep3D.
//
//   Fig 9 — "Sweep3D Compute => Kernel TCP (CDF)": the number of kernel
//   TCP receive calls that fire *inside the communication-free compute
//   phase* of sweep().  More calls inside compute = more mixing of
//   computation and communication = more imbalance.  Paper shape: the
//   64x2 Pinned,I-Bal curve sits at significantly larger call counts than
//   128x1; the "128x1 Pin,IRQ CPU1" control follows 128x1 (so the free
//   second processor is NOT the explanation).
//
//   Fig 10 — "Time / Kernel TCP Call (CDF)": the exclusive time of a
//   single kernel TCP operation.  Paper shape: ~27-36 us per call with the
//   64x2 curve dilated ~11.5% over 128x1 (cache effects of cross-CPU
//   receive processing).
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "analysis/render.hpp"
#include "experiments/harness.hpp"

namespace ktau::expt {
namespace {

constexpr std::pair<ChibaConfig, const char*> kConfigs[] = {
    {ChibaConfig::C128x1, "128x1"},
    {ChibaConfig::C128x1PinIrqCpu1, "128x1 Pin,IRQ CPU1"},
    {ChibaConfig::C64x2PinIbal, "64x2 Pinned,I-Bal"},
};

std::vector<TrialSpec> fig910_trials(const ScenarioParams& p) {
  std::vector<TrialSpec> trials;
  for (const auto& [config, name] : kConfigs) {
    ChibaRunConfig cfg;
    cfg.config = config;
    cfg.workload = Workload::Sweep3D;
    cfg.scale = p.scale;
    cfg.seed = p.seed(cfg.seed);
    trials.push_back({name, [cfg] {
                        auto run = run_chiba(cfg);
                        return trial_result(std::move(run),
                                            {{"exec_sec", run.exec_sec}});
                      }});
  }
  return trials;
}

void fig910_report(Report& rep, const ScenarioParams&,
                   const std::vector<TrialResult>& results) {
  std::map<std::string, sim::Cdf> calls_in_compute;
  std::map<std::string, sim::Cdf> us_per_call;
  for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
    const char* name = kConfigs[i].second;
    const auto& run = payload<ChibaRunResult>(results[i]);
    calls_in_compute[name] = cdf_of(metric_of(run, [](const RankStats& rs) {
      return static_cast<double>(rs.tcp_calls_in_compute);
    }));
    us_per_call[name] = cdf_of(metric_of(
        run, [](const RankStats& rs) { return rs.tcp_rcv_us_per_call; }));
  }

  analysis::render_cdfs(rep.out(),
                        "Figure 9: Sweep3D Compute => Kernel TCP (CDF)",
                        "tcp_v4_rcv calls inside sweep_compute, per rank",
                        calls_in_compute);
  rep.printf("\n");
  analysis::render_cdfs(rep.out(),
                        "Figure 10: Sweep3D Overall Kernel TCP Activity (CDF)",
                        "exclusive time / call (microseconds)", us_per_call);

  const double med_128 = calls_in_compute.at("128x1").median();
  const double med_ctrl = calls_in_compute.at("128x1 Pin,IRQ CPU1").median();
  const double med_64 = calls_in_compute.at("64x2 Pinned,I-Bal").median();
  rep.printf("\nTCP-in-compute medians: 128x1 %.0f, control %.0f, 64x2 "
             "%.0f\n",
             med_128, med_ctrl, med_64);
  // Paper shape: the control (rank+IRQs pinned to CPU1) follows 128x1,
  // ruling out "the free processor absorbs the TCP work" — reproduced.
  rep.gate("control (IRQs+rank on CPU1) follows 128x1 (within 25%)",
           std::fabs(med_ctrl - med_128) < 0.25 * med_128);
  // Paper also notes total TCP calls do not differ much across configs;
  // the in-compute *separation* (64x2 >> 128x1) is under-reproduced here
  // because round-robin IRQ routing dilutes per-rank attribution in our
  // model (see EXPERIMENTS.md); we report the curves without asserting it.
  rep.printf("(64x2 vs 128x1 in-compute separation: reported, not "
             "asserted; see EXPERIMENTS.md)\n");

  const double t_128 = us_per_call.at("128x1").median();
  const double t_64 = us_per_call.at("64x2 Pinned,I-Bal").median();
  rep.printf("time/TCP-receive-call medians: 128x1 %.1f us, 64x2 %.1f us "
             "(dilation %.1f%%, paper ~11.5%%)\n",
             t_128, t_64, (t_64 - t_128) / t_128 * 100.0);
  rep.gate("64x2 TCP processing dilated over 128x1 (Fig 10 shape)",
           t_64 > t_128 * 1.04);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "fig9_fig10",
     .title = "Figures 9 & 10: kernel TCP inside compute / time per TCP "
              "call (Sweep3D)",
     .default_scale = 0.2,
     .order = 46,
     .trials = fig910_trials,
     .report = fig910_report});

}  // namespace
}  // namespace ktau::expt
