// Figure 2 reproduction: the controlled experiments of §5.1 on the small
// testbeds (neutron / neuronic analogues).
//
//   2-A  kernel-wide per-node scheduling view: the node hosting the
//        artificial "overhead" process shows clearly more scheduling time;
//   2-B  per-process view of that node: the overhead process is the most
//        active non-LU process — the views pinpoint the culprit;
//   2-C  voluntary vs involuntary scheduling of 4 LU ranks on a 4-CPU SMP
//        with a cycle-stealing daemon pinned to CPU0: LU-0 suffers
//        involuntary scheduling, the others wait voluntarily for it;
//   2-D  merged user/kernel profile vs the user-only TAU view: kernel
//        routines appear, user routines shrink to "true" exclusive time;
//   2-E  merged user+kernel trace: kernel events (sys_writev,
//        sock_sendmsg, tcp_sendmsg, do_softirq, tcp receive path) inside a
//        user-level MPI_Send.
#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "experiments/controlled.hpp"
#include "experiments/harness.hpp"

namespace ktau::expt {
namespace {

std::vector<TrialSpec> fig2_trials(const ScenarioParams& p) {
  return {
      {"cluster",
       [seed = p.seed(3), scale = p.scale] {
         auto res = run_controlled_cluster(seed, scale);
         std::vector<std::pair<std::string, double>> metrics{
             {"job_sec", res.job_sec}};
         return trial_result(std::move(res), std::move(metrics));
       }},
      {"smp_volinvol",
       [seed = p.seed(5), scale = p.scale] {
         auto res = run_smp_volinvol(seed, scale);
         std::vector<std::pair<std::string, double>> metrics{
             {"lu0_invol_sec", res.invol_sec[0]},
             {"lu0_vol_sec", res.vol_sec[0]}};
         return trial_result(std::move(res), std::move(metrics));
       }},
      {"trace_demo",
       [seed = p.seed(9)] {
         auto res = run_trace_demo(seed);
         std::vector<std::pair<std::string, double>> metrics{
             {"ktaud_extractions", static_cast<double>(res.ktaud_extractions)},
             {"send_window_events",
              static_cast<double>(res.send_window.size())}};
         return trial_result(std::move(res), std::move(metrics));
       }},
  };
}

void fig2_report(Report& rep, const ScenarioParams&,
                 const std::vector<TrialResult>& results) {
  const auto& cluster_result = payload<ControlledClusterResult>(results[0]);
  const auto& smp = payload<VolInvolResult>(results[1]);
  const auto& trace = payload<TraceDemoResult>(results[2]);

  // -- A, B, D ---------------------------------------------------------------
  analysis::render_bars(rep.out(),
                        "Fig 2-A: kernel-wide scheduling time per node",
                        cluster_result.node_sched_sec);
  analysis::render_bars(
      rep.out(),
      "Fig 2-A (preemptive component): involuntary scheduling per node",
      cluster_result.node_invol_sec);
  {
    const auto& hog_pair =
        cluster_result.node_invol_sec[cluster_result.hog_node_id];
    double other_max = 0;
    for (std::size_t n = 0; n < cluster_result.node_invol_sec.size(); ++n) {
      if (n != cluster_result.hog_node_id) {
        other_max =
            std::max(other_max, cluster_result.node_invol_sec[n].second);
      }
    }
    rep.printf("hog node %s: %.2f s preemptive vs max other %.2f s\n",
               hog_pair.first.c_str(), hog_pair.second, other_max);
    rep.gate("culprit node identified (hog > 2x any other)",
             hog_pair.second > 2 * other_max);
    rep.printf("\n");
  }

  // 2-B: per-process breakdown of the hog node.  The total Sched group is
  // dominated by voluntary blocking (daemons sleep most of the run), so the
  // culprit signature is the preemptive (involuntary) component — the same
  // discriminator the per-node view used above.
  std::vector<std::pair<std::string, double>> proc_rows;
  std::vector<std::pair<std::string, double>> invol_rows;
  double hog_invol = 0, max_daemon_invol = 0;
  for (const auto& task : cluster_result.hog_node.tasks) {
    const auto groups =
        analysis::group_breakdown(cluster_result.hog_node, task);
    const auto it = groups.find(meas::Group::Sched);
    const double sched = it == groups.end() ? 0.0 : it->second;
    const double invol =
        analysis::named_metrics(cluster_result.hog_node, task, "schedule")
            .incl_sec;
    const std::string label =
        task.name + " (pid " + std::to_string(task.pid) + ")";
    proc_rows.emplace_back(label, sched);
    invol_rows.emplace_back(label, invol);
    const bool is_lu = task.name.rfind("lu.", 0) == 0;
    const bool is_idle = task.name.rfind("swapper", 0) == 0;
    if (task.name == cluster_result.hog_name) {
      hog_invol = invol;
    } else if (!is_lu && !is_idle) {
      max_daemon_invol = std::max(max_daemon_invol, invol);
    }
  }
  std::sort(proc_rows.begin(), proc_rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::sort(invol_rows.begin(), invol_rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  analysis::render_bars(rep.out(),
                        "Fig 2-B: per-process scheduling on the hog node",
                        proc_rows);
  analysis::render_bars(
      rep.out(),
      "Fig 2-B (preemptive component): involuntary scheduling per process",
      invol_rows);
  rep.printf("hog preemptive %.2f s vs max daemon preemptive %.2f s\n",
             hog_invol, max_daemon_invol);
  rep.gate("preemptive per-process view singles out the hog from the daemons",
           hog_invol > 2 * max_daemon_invol);
  rep.printf("\n");

  // -- C ---------------------------------------------------------------------
  rep.printf("== Fig 2-C: voluntary vs involuntary scheduling per LU rank "
             "(4-CPU SMP, daemon pinned to CPU0) ==\n");
  for (std::size_t r = 0; r < smp.vol_sec.size(); ++r) {
    rep.printf("  LU-%zu: voluntary %8.2f s   involuntary %8.2f s\n", r,
               smp.vol_sec[r], smp.invol_sec[r]);
  }
  // LU-0 is preemption-dominated (invol > vol); the other ranks are
  // voluntary-dominated and preempted much less than LU-0 (some residual
  // preemption cascades are realistic: a displaced LU-0 wake can bump a
  // sibling).
  bool c_shape = smp.invol_sec[0] > smp.vol_sec[0];
  for (int r = 1; r < 4; ++r) {
    c_shape = c_shape && smp.vol_sec[r] > smp.invol_sec[r] &&
              smp.invol_sec[r] < 0.7 * smp.invol_sec[0];
  }
  rep.gate("LU-0 involuntary-dominated, others voluntary (paper shape)",
           c_shape);
  rep.printf("\n");

  // -- D ---------------------------------------------------------------------
  std::vector<std::tuple<std::string, double, double>> merged_rows;
  for (const auto& row : cluster_result.merged_rank) {
    if (row.is_kernel) continue;
    merged_rows.emplace_back(row.name, row.true_excl_sec, row.raw_excl_sec);
  }
  analysis::render_paired_bars(
      rep.out(),
      "Fig 2-D: merged (KTAU+TAU) vs user-only exclusive time, rank 0",
      merged_rows, "merged 'true' exclusive", "user-only (TAU) exclusive");
  int kernel_rows = 0;
  for (const auto& row : cluster_result.merged_rank) {
    kernel_rows += row.is_kernel ? 1 : 0;
  }
  rep.printf("kernel rows present in the merged view: %d\n", kernel_rows);
  rep.gate("merged view contains kernel rows", kernel_rows > 0);
  rep.printf("\n");

  // -- E ---------------------------------------------------------------------
  analysis::render_timeline(
      rep.out(), "Fig 2-E: kernel activity within a user-level MPI_Send",
      trace.send_window, 120);
  bool saw_writev = false, saw_tcp = false, saw_softirq = false;
  for (const auto& e : trace.send_window) {
    saw_writev |= e.is_kernel && e.name == "sys_writev";
    saw_tcp |= e.is_kernel && e.name == "tcp_sendmsg";
    saw_softirq |= e.is_kernel && e.name == "do_softirq";
  }
  rep.printf("send window kernel events sys_writev/tcp_sendmsg/do_softirq: "
             "%s/%s/%s\n",
             saw_writev ? "y" : "n", saw_tcp ? "y" : "n",
             saw_softirq ? "y" : "n");
  rep.gate("send window contains sys_writev, tcp_sendmsg and do_softirq",
           saw_writev && saw_tcp && saw_softirq);
  rep.printf("(ktaud extracted the kernel trace %llu times during the run)\n",
             static_cast<unsigned long long>(trace.ktaud_extractions));
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "fig2",
     .title = "Figure 2: controlled experiments (LU + overhead hog)",
     .default_scale = 0.3,
     .order = 40,
     .trials = fig2_trials,
     .report = fig2_report});

}  // namespace
}  // namespace ktau::expt
