// Trace extraction at scale: a syscall-busy app plus a wall of sleeper
// daemons on one node, a periodic KTAUD pulling kernel traces, legacy
// full-buffer reads vs the cursor-carrying drain protocol (wire v4).
//
// The profile plane got this treatment in ktaud_scale (wire v3); this is
// the trace-plane mirror.  A legacy trace read re-ships the full event
// table and a per-task frame for *every* traced task each period, even the
// ones that logged nothing; a cursor drain ships name-table additions and
// dirty tasks only, and charges the daemon for the wire bytes that actually
// moved rather than the historical padded-record formula.  A deliberately
// undersized ring then shows the loss story: every overwritten record is
// counted and surfaces as a typed gap, never silently closed over.
//
// Shape checks (PASS/FAIL gates; exit code = number of FAILs):
//   - drains move >= 3x fewer wire bytes per steady-state period;
//   - drains move fewer trace wire bytes in total;
//   - same extraction cadence, no record loss in either steady mode;
//   - KTAUD-induced perturbation is strictly lower with drains (the
//     monitored app finishes strictly earlier);
//   - determinism: the drains run is bit-identical across two executions;
//   - on the lossy ring: a zero-cursor v4 read decodes the same records and
//     loss as the legacy v2 full-buffer read, every pushed record is either
//     shipped or counted lost, and the loss-aware merge carries the typed
//     gaps through.
#include <algorithm>
#include <string>
#include <vector>

#include "analysis/traceexport.hpp"
#include "apps/daemons.hpp"
#include "clients/ktaud.hpp"
#include "experiments/harness.hpp"
#include "kernel/cluster.hpp"
#include "libktau/libktau.hpp"

namespace ktau::expt {
namespace {

struct TraceScaleRun {
  std::uint64_t extractions = 0;
  std::uint64_t records = 0;
  std::uint64_t dropped = 0;
  std::uint64_t steady_wire = 0;  // trace wire bytes of the final period
  std::uint64_t total_wire = 0;
  std::uint64_t charged_bytes = 0;  // what processing cost was charged on
  sim::TimeNs app_done = 0;         // monitored app completion time
  // Lossy-trial integrity checks, evaluated against the live kernel at the
  // end of the run.
  bool zero_cursor_matches_v2 = false;
  bool conservation_ok = false;
  bool gaps_ok = false;
  std::uint64_t merged_gap_records = 0;  // sum of typed gap sizes post-merge
};

kernel::Program app_program(int iters) {
  for (int i = 0; i < iters; ++i) {
    co_await kernel::Compute{500 * sim::kMicrosecond};
    co_await kernel::NullSyscall{};
  }
}

TraceScaleRun run_scenario(double scale, bool drains, std::size_t capacity,
                           bool keep_archives) {
  const int daemons = std::max(16, static_cast<int>(160 * scale));
  const int app_iters = std::max(1000, static_cast<int>(10'000 * scale));
  const sim::TimeNs horizon = 10 * sim::kSecond;

  kernel::Cluster cluster;
  kernel::MachineConfig mcfg;
  mcfg.cpus = 1;  // everything contends: perturbation is visible
  mcfg.ktau.tracing = true;
  mcfg.ktau.trace_capacity = capacity;
  kernel::Machine& m = cluster.add_machine(mcfg);

  // Sleeper wall: long periods, staggered phases — at steady state almost
  // every traced ring is clean in any given extraction period, which is
  // exactly the population a full-buffer read keeps re-shipping headers for.
  for (int d = 0; d < daemons; ++d) {
    apps::DaemonParams dp;
    dp.period = 2 * sim::kSecond;
    dp.burst = 1 * sim::kMillisecond;
    dp.until = horizon;
    dp.phase = (d * 2 * sim::kSecond) / daemons;
    apps::spawn_daemon(m, dp, "sleeper-" + std::to_string(d));
  }

  // The monitored application: fixed syscall-heavy work, so its completion
  // time is a direct perturbation measurement and its trace rate dominates.
  kernel::Task& app = m.spawn("app");
  app.program = app_program(app_iters);
  m.launch(app);

  clients::KtaudConfig kcfg;
  kcfg.period = 50 * sim::kMillisecond;
  kcfg.until = horizon;
  kcfg.collect_profiles = false;  // trace data plane under test
  kcfg.keep_archives = keep_archives;
  kcfg.trace_drains = drains;
  // Amplified processing cost so the byte-accounting difference between the
  // modes is well clear of the per-period rounding granularity.
  kcfg.process_per_kb = 10'000;
  clients::Ktaud ktaud(m, kcfg);

  cluster.run_until(horizon);

  TraceScaleRun out;
  out.extractions = ktaud.extractions();
  out.records = ktaud.total_records();
  out.dropped = ktaud.total_dropped();
  out.steady_wire = ktaud.last_trace_wire_bytes();
  out.total_wire = ktaud.total_trace_wire_bytes();
  out.charged_bytes = ktaud.total_extract_bytes();
  out.app_done = app.end_time;

  // End-state integrity reads against the live rings.  Order matters: the
  // zero-cursor v4 read is non-destructive, the legacy v2 read drains.
  user::KtauHandle v4_handle(m.proc());
  const meas::TraceSnapshot inc =
      v4_handle.get_trace_incremental(meas::Scope::All);
  user::KtauHandle v2_handle(m.proc());
  const meas::TraceSnapshot full_read = v2_handle.get_trace(meas::Scope::All);

  // A zero-cursor frame is the compat story: it must carry exactly what the
  // full-buffer read does — same tasks, same records, same counted loss.
  bool same = inc.tasks.size() == full_read.tasks.size();
  for (std::size_t i = 0; same && i < inc.tasks.size(); ++i) {
    same = inc.tasks[i].pid == full_read.tasks[i].pid &&
           inc.tasks[i].dropped == full_read.tasks[i].dropped &&
           inc.tasks[i].records == full_read.tasks[i].records;
  }
  out.zero_cursor_matches_v2 = same;

  // Nothing vanishes: shipped + counted-lost spans every record the kernel
  // ever pushed into each ring.
  out.conservation_ok = !inc.tasks.empty();
  for (const auto& t : inc.tasks) {
    const meas::TaskProfile* prof = m.find_profile(t.pid);
    out.conservation_ok =
        out.conservation_ok && prof != nullptr && prof->trace() != nullptr &&
        t.records.size() + t.dropped == t.next_seq &&
        t.next_seq == prof->trace()->total_pushed();
  }

  // Loss-aware merge: stitch the archived per-period frames and check the
  // typed gaps survive with the right totals.
  if (keep_archives) {
    const meas::TraceSnapshot merged =
        analysis::merge_trace_frames(ktaud.traces());
    bool gaps_ok = true;
    for (const auto& t : merged.tasks) {
      std::uint64_t gap_sum = 0;
      for (const auto& g : t.gaps) gap_sum += g.dropped;
      out.merged_gap_records += gap_sum;
      gaps_ok = gaps_ok && gap_sum == t.dropped;
    }
    out.gaps_ok = gaps_ok && out.merged_gap_records > 0;
  }
  return out;
}

TrialSpec scale_trial(std::string name, double scale, bool drains,
                      std::size_t capacity, bool keep_archives) {
  return {std::move(name), [scale, drains, capacity, keep_archives] {
            auto run = run_scenario(scale, drains, capacity, keep_archives);
            return trial_result(
                std::move(run),
                {{"extractions", static_cast<double>(run.extractions)},
                 {"records", static_cast<double>(run.records)},
                 {"dropped", static_cast<double>(run.dropped)},
                 {"steady_wire", static_cast<double>(run.steady_wire)},
                 {"total_wire", static_cast<double>(run.total_wire)},
                 {"app_done_sec",
                  static_cast<double>(run.app_done) / sim::kSecond}});
          }};
}

std::vector<TrialSpec> trace_trials(const ScenarioParams& p) {
  // No RNG in this scenario — the workload is fully deterministic, so the
  // seed salt has nothing to vary; repeats re-check determinism instead.
  return {scale_trial("full", p.scale, false, 4096, false),
          scale_trial("drains", p.scale, true, 4096, false),
          scale_trial("drains2", p.scale, true, 4096, false),
          scale_trial("lossy", p.scale, true, 64, true)};
}

void trace_report(Report& rep, const ScenarioParams&,
                  const std::vector<TrialResult>& results) {
  const auto& full = payload<TraceScaleRun>(results[0]);
  const auto& drains = payload<TraceScaleRun>(results[1]);
  const auto& drains2 = payload<TraceScaleRun>(results[2]);
  const auto& lossy = payload<TraceScaleRun>(results[3]);

  rep.printf("\nextractions: %llu (both modes)\n",
             static_cast<unsigned long long>(full.extractions));
  rep.printf("trace wire bytes/period at steady state: full %llu, drains "
             "%llu (%.1fx reduction)\n",
             static_cast<unsigned long long>(full.steady_wire),
             static_cast<unsigned long long>(drains.steady_wire),
             drains.steady_wire
                 ? static_cast<double>(full.steady_wire) /
                       static_cast<double>(drains.steady_wire)
                 : 0.0);
  rep.printf("total trace wire bytes: full %llu, drains %llu\n",
             static_cast<unsigned long long>(full.total_wire),
             static_cast<unsigned long long>(drains.total_wire));
  rep.printf("charged bytes: full %llu, drains %llu\n",
             static_cast<unsigned long long>(full.charged_bytes),
             static_cast<unsigned long long>(drains.charged_bytes));
  rep.printf("records: full %llu, drains %llu (dropped: %llu / %llu)\n",
             static_cast<unsigned long long>(full.records),
             static_cast<unsigned long long>(drains.records),
             static_cast<unsigned long long>(full.dropped),
             static_cast<unsigned long long>(drains.dropped));
  rep.printf("app completion: full %.6f s, drains %.6f s\n",
             static_cast<double>(full.app_done) / sim::kSecond,
             static_cast<double>(drains.app_done) / sim::kSecond);
  rep.printf("lossy ring (64 records): %llu dropped, %llu in typed gaps "
             "after merge\n\n",
             static_cast<unsigned long long>(lossy.dropped),
             static_cast<unsigned long long>(lossy.merged_gap_records));

  rep.gate("drains move >= 3x fewer wire bytes per steady-state period",
           drains.steady_wire > 0 &&
               full.steady_wire >= 3 * drains.steady_wire);
  rep.gate("drains move fewer trace wire bytes in total",
           drains.total_wire < full.total_wire);
  rep.gate("same extraction cadence in both modes",
           full.extractions == drains.extractions && full.extractions > 100);
  rep.gate("no record loss in either steady mode",
           full.dropped == 0 && drains.dropped == 0 && full.records > 0 &&
               drains.records > 0);
  rep.gate("ktaud perturbation strictly lower with drains",
           drains.app_done < full.app_done && drains.app_done > 0);
  rep.gate("drains run is deterministic",
           drains.total_wire == drains2.total_wire &&
               drains.steady_wire == drains2.steady_wire &&
               drains.records == drains2.records &&
               drains.app_done == drains2.app_done);
  // Not checked on the "full" trial: its ktaud drained destructively, so a
  // final v2 read legitimately sees only the undrained tail.
  rep.gate("zero-cursor v4 read decodes the legacy v2 full-buffer read",
           drains.zero_cursor_matches_v2 && lossy.zero_cursor_matches_v2);
  rep.gate("every pushed record is shipped or counted lost",
           full.conservation_ok && drains.conservation_ok &&
               lossy.conservation_ok);
  rep.gate("ring overwrite surfaces as typed gaps through the merge",
           lossy.dropped > 0 && lossy.gaps_ok);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "trace_scale",
     .title = "Trace drains at scale: full-buffer vs cursor extraction on "
              "a sleeper-daemon node",
     .default_scale = kDefaultScale,
     .order = 62,
     .trials = trace_trials,
     .report = trace_report});

}  // namespace
}  // namespace ktau::expt
