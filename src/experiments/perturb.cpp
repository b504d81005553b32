#include "experiments/perturb.hpp"

#include <algorithm>
#include <cmath>

namespace ktau::expt {

ChibaRunConfig perturb_run_config(PerturbMode mode, int ranks, double scale,
                                  std::uint64_t seed, Workload workload) {
  ChibaRunConfig cfg;
  cfg.config = ChibaConfig::C128x1;  // one rank per node, as in §5.3
  cfg.workload = workload;
  cfg.perturb = mode;
  cfg.ranks = ranks;
  cfg.seed = seed;
  cfg.scale = scale;
  // Calibrated instrumentation densities (DESIGN.md §4): the real patch
  // ran HZ=1000 kernels with instrumentation across whole subsystems.
  cfg.timer_probe_density = 150;
  cfg.tau_inner_pairs = 40;
  if (workload == Workload::LU) {
    cfg.lu_override = perturb_lu_params(ranks, scale, seed);
  }
  return cfg;
}

PerturbSummary perturb_summarize(const std::vector<double>& runs,
                                 const PerturbSummary* base) {
  PerturbSummary s;
  s.runs_sec = runs;
  s.min_sec = *std::min_element(runs.begin(), runs.end());
  s.avg_sec = 0;
  for (const double r : runs) s.avg_sec += r;
  s.avg_sec /= static_cast<double>(runs.size());
  if (base != nullptr) {
    s.min_slow_pct =
        std::max(0.0, (s.min_sec - base->min_sec) / base->min_sec * 100.0);
    s.avg_slow_pct =
        std::max(0.0, (s.avg_sec - base->avg_sec) / base->avg_sec * 100.0);
  }
  return s;
}

apps::LuParams perturb_lu_params(int ranks, double scale,
                                 std::uint64_t seed) {
  apps::LuParams p;
  // Near-square grid (16 ranks -> 4x4).
  p.py = static_cast<int>(std::sqrt(static_cast<double>(ranks)));
  while (p.py > 1 && ranks % p.py != 0) --p.py;
  p.px = ranks / p.py;
  p.iterations = std::max(2, static_cast<int>(std::lround(100 * scale)));
  // Class C on 16 nodes: bigger subdomains per rank than the 128-way runs;
  // calibrated so Base lands near the paper's ~470 s.
  p.rhs_time = 3300 * sim::kMillisecond;
  p.stage_time = 28 * sim::kMillisecond;
  p.k_blocks = 16;
  p.halo_bytes = 120 * 1024;
  p.pipe_bytes = 24 * 1024;
  p.norm_every = 10;
  p.seed = seed * 131 + 7;
  return p;
}

double perturb_single_run(PerturbMode mode, int ranks, double scale,
                          std::uint64_t seed, Workload workload) {
  const auto result = run_chiba(perturb_run_config(mode, ranks, scale, seed, workload));
  return result.exec_sec;
}

}  // namespace ktau::expt
