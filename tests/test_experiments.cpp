// Tests for the experiment harness: Chiba configurations, the anomaly
// mechanics, the perturbation study machinery, and the controlled
// experiments — all at miniature scale so the suite stays fast.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "experiments/chiba.hpp"
#include "experiments/controlled.hpp"
#include "experiments/perturb.hpp"

namespace ktau::expt {
namespace {

ChibaRunConfig mini(ChibaConfig config, Workload w = Workload::LU) {
  ChibaRunConfig cfg;
  cfg.config = config;
  cfg.workload = w;
  cfg.ranks = 16;
  cfg.scale = 0.04;  // a handful of iterations
  cfg.seed = 5;
  return cfg;
}

TEST(ChibaHarness, NamesAreStable) {
  EXPECT_EQ(config_name(ChibaConfig::C128x1), "128x1");
  EXPECT_EQ(config_name(ChibaConfig::C64x2Anomaly), "64x2 Anomaly");
  EXPECT_EQ(config_name(ChibaConfig::C64x2PinIbal), "64x2 Pin,I-Bal");
  EXPECT_EQ(perturb_name(PerturbMode::KtauOff), "Ktau Off");
  EXPECT_EQ(perturb_name(PerturbMode::ProfAllTau), "ProfAll+Tau");
}

TEST(ChibaHarness, PlacementMapsRanksRoundRobin) {
  // 64x2 with 16 ranks -> 8 nodes; ranks r and r+8 share node r.
  EXPECT_EQ(chiba_node_of_rank(ChibaConfig::C64x2, 3, 16), 3u);
  EXPECT_EQ(chiba_node_of_rank(ChibaConfig::C64x2, 11, 16), 3u);
  EXPECT_EQ(chiba_node_of_rank(ChibaConfig::C128x1, 11, 16), 11u);
}

TEST(ChibaHarness, RunCompletesAndPopulatesStats) {
  const auto run = run_chiba(mini(ChibaConfig::C128x1));
  EXPECT_GT(run.exec_sec, 0.0);
  ASSERT_EQ(run.ranks.size(), 16u);
  std::uint64_t total_tcp = 0;
  double total_vol = 0;
  for (const auto& rs : run.ranks) {
    EXPECT_GT(rs.exec_sec, 0.0);
    EXPECT_GT(rs.recv_calls, 0u);
    total_tcp += rs.tcp_calls;
    total_vol += rs.vol_sched_sec;
  }
  EXPECT_GT(total_tcp, 0u);
  EXPECT_GT(total_vol, 0.0);
  EXPECT_FALSE(run.spotlight_node.tasks.empty());
  EXPECT_GT(run.overhead_samples, 0u);
}

TEST(ChibaHarness, DeterministicForSeed) {
  const auto a = run_chiba(mini(ChibaConfig::C64x2));
  const auto b = run_chiba(mini(ChibaConfig::C64x2));
  EXPECT_DOUBLE_EQ(a.exec_sec, b.exec_sec);
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_DOUBLE_EQ(a.ranks[r].vol_sched_sec, b.ranks[r].vol_sched_sec);
    EXPECT_EQ(a.ranks[r].tcp_calls, b.ranks[r].tcp_calls);
  }
}

TEST(ChibaHarness, SeedChangesTheRun) {
  auto cfg = mini(ChibaConfig::C64x2);
  const auto a = run_chiba(cfg);
  cfg.seed = 6;
  const auto b = run_chiba(cfg);
  EXPECT_NE(a.exec_sec, b.exec_sec);
}

TEST(ChibaHarness, AnomalyConfigurationIsSlower) {
  const auto healthy = run_chiba(mini(ChibaConfig::C64x2));
  const auto anomaly = run_chiba(mini(ChibaConfig::C64x2Anomaly));
  EXPECT_GT(anomaly.exec_sec, healthy.exec_sec * 1.05);
}

TEST(ChibaHarness, AnomalyRanksShowInvoluntaryScheduling) {
  // With 8 nodes the anomaly node is node 7 -> ranks 7 and 15.
  const auto run = run_chiba(mini(ChibaConfig::C64x2Anomaly));
  double other_invol_max = 0;
  for (std::size_t r = 0; r < run.ranks.size(); ++r) {
    if (r == 7 || r == 15) continue;
    other_invol_max = std::max(other_invol_max, run.ranks[r].invol_sched_sec);
  }
  EXPECT_GT(run.ranks[7].invol_sched_sec, other_invol_max);
  EXPECT_GT(run.ranks[15].invol_sched_sec, other_invol_max);
  // ...and their voluntary time is below the median.
  std::vector<double> vols;
  for (const auto& rs : run.ranks) vols.push_back(rs.vol_sched_sec);
  std::sort(vols.begin(), vols.end());
  const double median = vols[vols.size() / 2];
  EXPECT_LT(run.ranks[7].vol_sched_sec, median);
}

TEST(ChibaHarness, IrqBalancingSpreadsInterruptTime) {
  const auto pinned = run_chiba(mini(ChibaConfig::C64x2Pinned));
  const auto balanced = run_chiba(mini(ChibaConfig::C64x2PinIbal));
  // Without balancing, the CPU0-pinned half of the ranks takes nearly all
  // interrupt time: the irq_sec spread collapses with balancing.
  auto spread = [](const ChibaRunResult& run) {
    std::vector<double> irqs;
    for (const auto& rs : run.ranks) irqs.push_back(rs.irq_sec);
    std::sort(irqs.begin(), irqs.end());
    return irqs.back() - irqs.front();
  };
  EXPECT_GT(spread(pinned), 2.0 * spread(balanced));
}

TEST(ChibaHarness, BasePerturbModeDisablesMeasurement) {
  auto cfg = mini(ChibaConfig::C128x1);
  cfg.perturb = PerturbMode::Base;
  const auto run = run_chiba(cfg);
  EXPECT_GT(run.exec_sec, 0.0);
  EXPECT_EQ(run.overhead_samples, 0u);
  for (const auto& rs : run.ranks) {
    EXPECT_EQ(rs.tcp_calls, 0u);  // nothing recorded
    EXPECT_EQ(rs.recv_calls, 0u);
  }
}

TEST(ChibaHarness, SweepWorkloadRuns) {
  const auto run = run_chiba(mini(ChibaConfig::C128x1, Workload::Sweep3D));
  EXPECT_GT(run.exec_sec, 0.0);
  std::uint64_t in_compute = 0;
  for (const auto& rs : run.ranks) in_compute += rs.tcp_calls_in_compute;
  EXPECT_GT(in_compute, 0u);
}

TEST(ChibaHarness, RejectsIncompatibleRankCount) {
  auto cfg = mini(ChibaConfig::C64x2);
  cfg.ranks = 15;  // odd: cannot split 2 per node
  EXPECT_THROW(run_chiba(cfg), std::invalid_argument);
}

TEST(Perturbation, InstrumentationSlowsTheRunInOrder) {
  const double base =
      perturb_single_run(PerturbMode::Base, 16, 0.04, 3, Workload::LU);
  const double off =
      perturb_single_run(PerturbMode::KtauOff, 16, 0.04, 3, Workload::LU);
  const double all =
      perturb_single_run(PerturbMode::ProfAll, 16, 0.04, 3, Workload::LU);
  const double alltau =
      perturb_single_run(PerturbMode::ProfAllTau, 16, 0.04, 3, Workload::LU);
  // KtauOff is within noise of Base.
  EXPECT_NEAR(off / base, 1.0, 0.005);
  // Full instrumentation costs low single-digit percent.
  EXPECT_GT(all, base * 1.002);
  EXPECT_LT(all, base * 1.10);
  // Adding TAU costs a bit more still.
  EXPECT_GE(alltau, all * 0.999);
}

TEST(Perturbation, StudySummariesAreConsistent) {
  // The table3/table4 trial split in miniature: two repetitions of every LU
  // mode at the study's seeds, each summarised against Base.
  std::map<PerturbMode, PerturbSummary> lu;
  for (const PerturbMode mode :
       {PerturbMode::Base, PerturbMode::KtauOff, PerturbMode::ProfAll,
        PerturbMode::ProfSched, PerturbMode::ProfAllTau}) {
    std::vector<double> runs;
    for (int rep = 0; rep < 2; ++rep) {
      runs.push_back(
          perturb_single_run(mode, 16, 0.03, 42 + 17 * rep, Workload::LU));
    }
    const auto base = lu.find(PerturbMode::Base);
    lu[mode] =
        perturb_summarize(runs, base == lu.end() ? nullptr : &base->second);
  }
  ASSERT_EQ(lu.size(), 5u);
  for (const auto& [mode, summary] : lu) {
    EXPECT_EQ(summary.runs_sec.size(), 2u) << perturb_name(mode);
    EXPECT_LE(summary.min_sec, summary.avg_sec) << perturb_name(mode);
  }
  EXPECT_DOUBLE_EQ(lu.at(PerturbMode::Base).avg_slow_pct, 0.0);
  // Table 4 self-measurement present and in the modelled band.
  const auto probed = run_chiba(perturb_run_config(
      PerturbMode::ProfAllTau, 16, 0.03, 42, Workload::LU));
  EXPECT_GT(probed.overhead_samples, 0u);
  EXPECT_NEAR(probed.overhead_start_mean, 244.4, 20.0);
  EXPECT_GE(probed.overhead_start_min, 160.0);
  EXPECT_NEAR(probed.overhead_stop_mean, 295.3, 20.0);
}

TEST(Controlled, ClusterExperimentIdentifiesHogNode) {
  const auto result = run_controlled_cluster(3, 0.08);
  ASSERT_EQ(result.node_invol_sec.size(), 8u);
  const double hog = result.node_invol_sec[result.hog_node_id].second;
  double others = 0;
  for (std::size_t n = 0; n < 8; ++n) {
    if (n != result.hog_node_id) {
      others = std::max(others, result.node_invol_sec[n].second);
    }
  }
  EXPECT_GT(hog, others);
  EXPECT_FALSE(result.merged_rank.empty());
  EXPECT_FALSE(result.hog_node.tasks.empty());
}

TEST(Controlled, SmpExperimentShowsCpu0RankPreempted) {
  // Needs a few hog interference cycles to be statistically clear.
  const auto result = run_smp_volinvol(5, 0.2);
  ASSERT_EQ(result.vol_sec.size(), 4u);
  // The rank sharing CPU0 with the pinned daemon is preemption-dominated;
  // its siblings are voluntary-dominated (modulo realistic displacement
  // cascades, so compare against LU-0 rather than demanding zero).
  EXPECT_GT(result.invol_sec[0], result.vol_sec[0]);
  for (int r = 1; r < 4; ++r) {
    EXPECT_GT(result.vol_sec[r], result.invol_sec[r]) << r;
    EXPECT_LT(result.invol_sec[r], result.invol_sec[0]) << r;
  }
}

TEST(Controlled, TraceDemoCapturesKernelActivityInsideSend) {
  const auto result = run_trace_demo(9);
  EXPECT_GT(result.ktaud_extractions, 0u);
  ASSERT_FALSE(result.send_window.empty());
  EXPECT_FALSE(result.send_window.front().is_kernel);  // user MPI_Send enter
  bool kernel_inside = false;
  for (const auto& e : result.send_window) kernel_inside |= e.is_kernel;
  EXPECT_TRUE(kernel_inside);
}

}  // namespace
}  // namespace ktau::expt
