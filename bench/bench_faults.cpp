// Fault-injection scenario shapes (DESIGN.md §7): one degraded node inside
// a healthy 64x2 cluster, faults drawn from a seeded FaultPlan.
//
// Shape checks (PASS/FAIL gates; exit code = number of FAILs):
//   - determinism: same config + seed => bit-identical fault schedule and
//     run results across two back-to-back scenario runs;
//   - a clean run injects nothing at all;
//   - the victim node's injected-interference time dominates every healthy
//     node's in the kernel-wide view (how a degraded node is spotted);
//   - the steal_interference KTAU event's inclusive time agrees with what
//     the plan injected (bursts x duration) within a band;
//   - packet loss actually produces retransmissions, and the fault mix
//     degrades end-to-end execution time.
#include <cstring>
#include <vector>

#include "analysis/netstat.hpp"
#include "experiments/faults.hpp"
#include "experiments/harness.hpp"

namespace ktau::expt {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_totals(const sim::FaultPlan::Totals& a,
                 const sim::FaultPlan::Totals& b) {
  return a.segments_dropped == b.segments_dropped &&
         a.segments_reordered == b.segments_reordered &&
         a.retransmits == b.retransmits && a.storm_irqs == b.storm_irqs &&
         a.steal_bursts == b.steal_bursts;
}

// Two independent trials with the SAME config + seed: the determinism gate
// compares them bit for bit.  Under --jobs they run on different workers,
// so the gate also polices cross-trial isolation.
std::vector<TrialSpec> faults_trials(const ScenarioParams& p) {
  FaultScenarioConfig cfg;
  cfg.scale = p.scale;
  cfg.seed = p.seed(cfg.seed);
  auto run = [cfg] {
    auto res = run_fault_scenario(cfg);
    // Per-node network pathology, machine-readable (aggregated here; the
    // per-node rows stay in the payload for the report).
    const auto net = analysis::net_counter_totals(res.faulted.net_nodes);
    return trial_result(
        std::move(res),
        {{"clean_exec_sec", res.clean.exec_sec},
         {"faulted_exec_sec", res.faulted.exec_sec},
         {"victim_interference_sec", res.victim_interference_sec},
         {"measured_steal_sec", res.measured_steal_sec},
         {"net_retransmits", static_cast<double>(net.retransmits)},
         {"net_rx_penalized_segments", static_cast<double>(net.rx_penalized)},
         {"net_read_errors", static_cast<double>(net.read_errors)}});
  };
  return {{"pair_a", run}, {"pair_b", run}};
}

void faults_report(Report& rep, const ScenarioParams&,
                   const std::vector<TrialResult>& results) {
  const auto& a = payload<FaultScenarioResult>(results[0]);
  const auto& b = payload<FaultScenarioResult>(results[1]);

  const auto& t = a.faulted.fault_totals;
  rep.printf("\nclean exec %.3f s | faulted exec %.3f s\n", a.clean.exec_sec,
             a.faulted.exec_sec);
  rep.printf("injected: %llu drops, %llu reorders, %llu retransmits, "
             "%llu storm IRQs, %llu steal bursts\n",
             static_cast<unsigned long long>(t.segments_dropped),
             static_cast<unsigned long long>(t.segments_reordered),
             static_cast<unsigned long long>(t.retransmits),
             static_cast<unsigned long long>(t.storm_irqs),
             static_cast<unsigned long long>(t.steal_bursts));
  rep.printf("victim node %u interference %.3f s | worst healthy node "
             "%.3f s\n",
             a.victim, a.victim_interference_sec,
             a.max_other_interference_sec);
  rep.printf("steal time: injected %.3f s, measured %.3f s\n",
             a.injected_steal_sec, a.measured_steal_sec);
  const auto net = analysis::net_counter_totals(a.faulted.net_nodes);
  rep.printf("net pathology: %llu retransmits, %llu cache-penalized rx "
             "segments, %llu read errors\n\n",
             static_cast<unsigned long long>(net.retransmits),
             static_cast<unsigned long long>(net.rx_penalized),
             static_cast<unsigned long long>(net.read_errors));

  rep.gate("same seed => identical fault schedule",
           same_totals(a.faulted.fault_totals, b.faulted.fault_totals) &&
               a.faulted.engine_events == b.faulted.engine_events &&
               same_bits(a.faulted.exec_sec, b.faulted.exec_sec) &&
               same_bits(a.victim_interference_sec,
                         b.victim_interference_sec));

  const auto& ct = a.clean.fault_totals;
  bool clean_quiet = ct.segments_dropped == 0 && ct.segments_reordered == 0 &&
                     ct.retransmits == 0 && ct.storm_irqs == 0 &&
                     ct.steal_bursts == 0;
  for (double sec : a.clean.node_interference_sec) {
    clean_quiet = clean_quiet && sec == 0.0;
  }
  rep.gate("clean run injects nothing", clean_quiet);

  rep.gate("victim stands out in kernel-wide view",
           a.victim_interference_sec > 0.0 &&
               a.victim_interference_sec >
                   5.0 * a.max_other_interference_sec);

  // Measured inclusive time sits at or slightly above the injected cycles
  // (probe cost inside the handler event rides along).
  const double ratio = a.injected_steal_sec > 0
                           ? a.measured_steal_sec / a.injected_steal_sec
                           : 0.0;
  rep.printf("steal measured/injected ratio: %.3f\n", ratio);
  rep.gate("steal interference inflates victim inclusive time within band",
           ratio > 0.9 && ratio < 1.6);

  rep.gate("packet loss recovered by retransmission",
           t.segments_dropped > 0 && t.retransmits > 0);

  rep.gate("fault mix degrades execution time",
           a.faulted.exec_sec > a.clean.exec_sec);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "faults",
     .title = "Fault injection: degraded node in a healthy 64x2 LU cluster",
     .default_scale = 0.05,
     .order = 60,
     .trials = faults_trials,
     .report = faults_report});

}  // namespace
}  // namespace ktau::expt
