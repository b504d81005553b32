// Ablation: sensitivity of the reproduced effects to the key model knobs
// (DESIGN.md section 4).
//
//  1. TCP cache penalty -> Figure 10's per-call dilation.
//  2. SMP compute dilation -> the residual 64x2-vs-128x1 gap (Table 2).
//  3. Instrumentation density -> ProfAll perturbation (Table 3).
//
// Each sweep runs a reduced workload; the point is the trend, not the
// absolute numbers.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "experiments/harness.hpp"
#include "experiments/perturb.hpp"

namespace ktau::expt {
namespace {

constexpr std::uint64_t kPenalties[] = {0, 2100, 4200, 8400};
constexpr double kDilations[] = {0.0, 0.11, 0.22, 0.33};
constexpr std::uint32_t kDensities[] = {50, 150, 400};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::vector<TrialSpec> ablation_trials(const ScenarioParams& p) {
  std::vector<TrialSpec> trials;

  // [1] cache penalty sweep: per-TCP-call median microseconds per config.
  for (const std::uint64_t penalty : kPenalties) {
    for (const ChibaConfig config :
         {ChibaConfig::C128x1, ChibaConfig::C64x2PinIbal}) {
      ChibaRunConfig cfg;
      cfg.workload = Workload::Sweep3D;
      cfg.scale = p.scale;
      cfg.config = config;
      cfg.tcp_cache_penalty_override = penalty;
      cfg.seed = p.seed(cfg.seed);
      trials.push_back(
          {"penalty" + std::to_string(penalty) + "/" + config_name(config),
           [cfg] {
             const double us = median_of(
                 metric_of(run_chiba(cfg), [](const RankStats& rs) {
                   return rs.tcp_rcv_us_per_call;
                 }));
             return trial_result(us, {{"tcp_rcv_us_per_call_med", us}});
           }});
    }
  }

  // [2] SMP dilation sweep: LU exec seconds per config.
  for (const double dilation : kDilations) {
    for (const ChibaConfig config :
         {ChibaConfig::C128x1, ChibaConfig::C64x2PinIbal}) {
      ChibaRunConfig cfg;
      cfg.workload = Workload::LU;
      cfg.scale = p.scale;
      cfg.config = config;
      cfg.smp_dilation_override = dilation;
      cfg.seed = p.seed(cfg.seed);
      char label[64];
      std::snprintf(label, sizeof(label), "dilation%.2f/%s", dilation,
                    config_name(config).c_str());
      trials.push_back({label, [cfg] {
                          const double sec = run_chiba(cfg).exec_sec;
                          return trial_result(sec, {{"exec_sec", sec}});
                        }});
    }
  }

  // [3] probe density sweep: Base vs ProfAll exec seconds.  A Base kernel
  // has KTAU compiled out and never reads the density, so only the ProfAll
  // arm sets it and the three Base trials share one run.
  for (const std::uint32_t density : kDensities) {
    for (const PerturbMode mode : {PerturbMode::Base, PerturbMode::ProfAll}) {
      ChibaRunConfig cfg;
      cfg.config = ChibaConfig::C128x1;
      cfg.workload = Workload::LU;
      cfg.ranks = 16;
      cfg.scale = p.scale * 2;
      cfg.perturb = mode;
      if (mode == PerturbMode::ProfAll) cfg.timer_probe_density = density;
      cfg.lu_override = perturb_lu_params(16, p.scale * 2, 42);
      cfg.seed = p.seed(cfg.seed);
      trials.push_back({"density" + std::to_string(density) + "/" +
                            perturb_name(mode),
                        [p, cfg] {
                          const double sec = p.chiba_run(cfg)->exec_sec;
                          return trial_result(sec, {{"exec_sec", sec}});
                        }});
    }
  }
  return trials;
}

void ablation_report(Report& rep, const ScenarioParams&,
                     const std::vector<TrialResult>& results) {
  std::size_t idx = 0;

  rep.printf("\n[1] tcp_rcv cache penalty -> per-TCP-call dilation, 64x2 "
             "Pin,I-Bal vs 128x1 (paper ~+11.5%%)\n");
  double first_penalty_gain = 0, last_penalty_gain = 0;
  for (const std::uint64_t penalty : kPenalties) {
    const double t0 = payload<double>(results[idx++]);
    const double t1 = payload<double>(results[idx++]);
    const double gain = (t1 - t0) / t0 * 100.0;
    rep.printf("    penalty %5llu cycles: %.1f us -> %.1f us (+%.1f%%)\n",
               static_cast<unsigned long long>(penalty), t0, t1, gain);
    if (penalty == kPenalties[0]) first_penalty_gain = gain;
    last_penalty_gain = gain;
  }
  rep.gate("larger cache penalty widens per-call dilation",
           last_penalty_gain > first_penalty_gain);

  rep.printf("\n[2] SMP memory-contention dilation -> 64x2 Pin,I-Bal "
             "slowdown over 128x1 (paper: +13.6%%)\n");
  double first_dilation_gap = 0, last_dilation_gap = 0;
  for (const double dilation : kDilations) {
    const double base = payload<double>(results[idx++]);
    const double smp = payload<double>(results[idx++]);
    const double gap = (smp - base) / base * 100.0;
    rep.printf("    dilation %.2f: +%.1f%%\n", dilation, gap);
    if (dilation == kDilations[0]) first_dilation_gap = gap;
    last_dilation_gap = gap;
  }
  rep.gate("larger SMP dilation widens the 64x2 slowdown",
           last_dilation_gap > first_dilation_gap);

  rep.printf("\n[3] instrumentation density -> ProfAll slowdown "
             "(paper: +2.32%%)\n");
  double first_density_slow = 0, last_density_slow = 0;
  for (const std::uint32_t density : kDensities) {
    const double base = payload<double>(results[idx++]);
    const double all = payload<double>(results[idx++]);
    const double slow = (all - base) / base * 100.0;
    rep.printf("    timer density %3u hidden pairs/tick: +%.2f%%\n", density,
               slow);
    if (density == kDensities[0]) first_density_slow = slow;
    last_density_slow = slow;
  }
  rep.gate("denser instrumentation perturbs more",
           last_density_slow > first_density_slow);

  rep.printf("\n(densities model the real patch's instrumentation points "
             "per kernel path; see DESIGN.md section 4)\n");
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "ablation_knobs",
     .title = "Ablations: cache penalty / SMP dilation / probe density",
     .default_scale = 0.05,
     .order = 70,
     .trials = ablation_trials,
     .report = ablation_report});

}  // namespace
}  // namespace ktau::expt
