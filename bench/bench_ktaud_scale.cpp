// Daemon-based monitoring at scale: many mostly-idle tasks on one node, a
// periodic KTAUD pulling kernel profiles, full (zero-cursor) reads every
// period vs cursor-carrying delta reads.
//
// The paper's §2 concern about daemon-based monitoring is that the monitor
// perturbs the system it measures.  With full snapshots the per-period
// extraction cost grows with *everything that ever ran* (KTAUD re-ships
// every task's every row each period); with delta extraction it tracks only
// what changed since the previous period — on a node full of sleeping
// daemons, almost nothing.
//
// Shape checks (PASS/FAIL gates; exit code = number of FAILs):
//   - delta extraction moves >= 5x fewer bytes per steady-state period;
//   - delta extraction moves fewer bytes in total;
//   - the daemon's delta stream, reassembled client-side and continued by
//     one more read after the run, carries the same cumulative totals as a
//     fresh full read (merged through analysis::MergePipeline);
//   - KTAUD-induced perturbation is strictly lower with deltas (the
//     monitored app finishes strictly earlier);
//   - determinism: the delta run is bit-identical across two executions
//     (under --jobs the two delta trials run on different workers, so this
//     also polices cross-trial isolation).
#include <algorithm>
#include <string>
#include <vector>

#include "analysis/merge.hpp"
#include "apps/daemons.hpp"
#include "clients/ktaud.hpp"
#include "experiments/harness.hpp"
#include "kernel/cluster.hpp"

namespace ktau::expt {
namespace {

struct ScaleRun {
  std::uint64_t extractions = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t steady_bytes = 0;  // bytes moved by the final period
  sim::TimeNs app_done = 0;        // monitored app completion time
  double daemon_cpu_share = 0;     // modelled processing time / horizon
  // End-state kernel-wide views of the same simulation: a fresh full read
  // and the daemon's reassembled cursor stream, both merged through
  // analysis::MergePipeline.
  std::vector<analysis::EventRow> merged_full;
  std::vector<analysis::EventRow> merged_stream;
};

kernel::Program app_program(int iters) {
  for (int i = 0; i < iters; ++i) {
    co_await kernel::Compute{5 * sim::kMillisecond};
    co_await kernel::NullSyscall{};
  }
}

ScaleRun run_scenario(double scale, bool delta) {
  const int daemons = std::max(16, static_cast<int>(160 * scale));
  const int app_iters = std::max(50, static_cast<int>(500 * scale));
  const sim::TimeNs horizon = 10 * sim::kSecond;
  const sim::TimeNs ktaud_period = 50 * sim::kMillisecond;

  kernel::Cluster cluster;
  kernel::MachineConfig mcfg;
  mcfg.cpus = 1;  // everything contends: perturbation is visible
  kernel::Machine& m = cluster.add_machine(mcfg);

  // A wall of sleeper daemons: long periods, short bursts, staggered
  // phases.  At steady state almost all of them are clean in any given
  // extraction period.
  for (int d = 0; d < daemons; ++d) {
    apps::DaemonParams dp;
    dp.period = 2 * sim::kSecond;
    dp.burst = 1 * sim::kMillisecond;
    dp.until = horizon;
    dp.phase = (d * 2 * sim::kSecond) / daemons;
    apps::spawn_daemon(m, dp, "sleeper-" + std::to_string(d));
  }

  // The monitored application: fixed work, so its completion time is a
  // direct perturbation measurement.
  kernel::Task& app = m.spawn("app");
  app.program = app_program(app_iters);
  m.launch(app);

  clients::KtaudConfig kcfg;
  kcfg.period = ktaud_period;
  kcfg.until = horizon;
  kcfg.collect_traces = false;  // profile data plane under test
  kcfg.keep_archives = false;   // a real daemon streams, it doesn't hoard
  kcfg.delta = delta;
  clients::Ktaud ktaud(m, kcfg);

  cluster.run_until(horizon);

  ScaleRun out;
  out.extractions = ktaud.extractions();
  out.total_bytes = ktaud.total_extract_bytes();
  out.steady_bytes = ktaud.last_extract_bytes();
  out.app_done = app.end_time;
  const double charged_cycles = static_cast<double>(
      (out.total_bytes * kcfg.process_per_kb + 1023) / 1024);
  out.daemon_cpu_share =
      charged_cycles / static_cast<double>(mcfg.freq) /
      (static_cast<double>(horizon) / static_cast<double>(sim::kSecond));

  // End-state views: a fresh full read, and one more read on the daemon's
  // own cursor — in the delta mode a real delta frame folded onto every
  // period's reassembly.
  user::KtauHandle fresh(m.proc());
  const meas::ProfileSnapshot full_snap = fresh.get_profile(meas::Scope::All);
  const meas::ProfileSnapshot& stream_snap =
      ktaud.handle().get_profile_delta(meas::Scope::All);
  analysis::MergePipeline full_pipe;
  full_pipe.add(full_snap);
  out.merged_full = full_pipe.event_rows();
  analysis::MergePipeline stream_pipe;
  stream_pipe.add(stream_snap);
  out.merged_stream = stream_pipe.event_rows();
  return out;
}

TrialSpec scale_trial(std::string name, double scale, bool delta) {
  return {std::move(name), [scale, delta] {
            auto run = run_scenario(scale, delta);
            return trial_result(
                std::move(run),
                {{"extractions", static_cast<double>(run.extractions)},
                 {"steady_bytes", static_cast<double>(run.steady_bytes)},
                 {"total_bytes", static_cast<double>(run.total_bytes)},
                 {"app_done_sec",
                  static_cast<double>(run.app_done) / sim::kSecond}});
          }};
}

std::vector<TrialSpec> ktaud_trials(const ScenarioParams& p) {
  // No RNG in this scenario — the workload is fully deterministic, so the
  // seed salt has nothing to vary; repeats re-check determinism instead.
  return {scale_trial("full", p.scale, false),
          scale_trial("delta", p.scale, true),
          scale_trial("delta2", p.scale, true)};
}

void ktaud_report(Report& rep, const ScenarioParams&,
                  const std::vector<TrialResult>& results) {
  const auto& full = payload<ScaleRun>(results[0]);
  const auto& delta = payload<ScaleRun>(results[1]);
  const auto& delta2 = payload<ScaleRun>(results[2]);

  rep.printf("\nextractions: %llu (both modes)\n",
             static_cast<unsigned long long>(full.extractions));
  rep.printf("bytes/period at steady state: full %llu, delta %llu "
             "(%.1fx reduction)\n",
             static_cast<unsigned long long>(full.steady_bytes),
             static_cast<unsigned long long>(delta.steady_bytes),
             delta.steady_bytes
                 ? static_cast<double>(full.steady_bytes) /
                       static_cast<double>(delta.steady_bytes)
                 : 0.0);
  rep.printf("total bytes: full %llu, delta %llu\n",
             static_cast<unsigned long long>(full.total_bytes),
             static_cast<unsigned long long>(delta.total_bytes));
  rep.printf("app completion: full %.6f s, delta %.6f s\n",
             static_cast<double>(full.app_done) / sim::kSecond,
             static_cast<double>(delta.app_done) / sim::kSecond);
  rep.printf("modelled ktaud cpu share: full %.5f%%, delta %.5f%%\n\n",
             100 * full.daemon_cpu_share, 100 * delta.daemon_cpu_share);

  rep.gate("delta moves >= 5x fewer bytes per steady-state period",
           delta.steady_bytes > 0 &&
               full.steady_bytes >= 5 * delta.steady_bytes);
  rep.gate("delta moves fewer bytes in total",
           delta.total_bytes < full.total_bytes);
  rep.gate("same extraction cadence in both modes",
           full.extractions == delta.extractions && full.extractions > 100);

  // Same simulation, one merge pipeline: the delta stream's client-side
  // reassembly must serve the exact rows a fresh full read does.
  bool same_view = delta.merged_full.size() == delta.merged_stream.size() &&
                   !delta.merged_full.empty();
  if (same_view) {
    for (std::size_t i = 0; i < delta.merged_full.size(); ++i) {
      same_view =
          same_view &&
          delta.merged_full[i].name == delta.merged_stream[i].name &&
          delta.merged_full[i].count == delta.merged_stream[i].count &&
          delta.merged_full[i].incl_sec == delta.merged_stream[i].incl_sec;
    }
  }
  rep.gate("delta reassembly matches a fresh full read", same_view);

  rep.gate("ktaud perturbation strictly lower with deltas",
           delta.app_done < full.app_done && delta.app_done > 0);

  rep.gate("delta run is deterministic",
           delta.total_bytes == delta2.total_bytes &&
               delta.steady_bytes == delta2.steady_bytes &&
               delta.app_done == delta2.app_done);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "ktaud_scale",
     .title = "KTAUD at scale: full vs delta extraction on a "
              "sleeper-daemon node",
     .default_scale = kDefaultScale,
     .order = 61,
     .trials = ktaud_trials,
     .report = ktaud_report});

}  // namespace
}  // namespace ktau::expt
