// Trace extraction at scale: a syscall-busy app plus a wall of sleeper
// daemons on one node, a periodic KTAUD pulling kernel traces through the
// cursor-carrying drain protocol (wire v4).
//
// The trace-plane mirror of ktaud_scale: a cursor drain ships name-table
// additions and dirty tasks only, and the daemon is charged for the wire
// bytes that actually moved.  Its wire-byte figures are pinned in
// BENCH_budgets.  A deliberately undersized ring then shows the loss
// story: every overwritten record is counted and surfaces as a typed gap,
// never silently closed over.
//
// Shape checks (PASS/FAIL gates; exit code = number of FAILs):
//   - the same extraction cadence at both ring capacities, and no record
//     loss on the 4096-record ring;
//   - determinism: the drains run is bit-identical across two executions;
//   - every pushed record is either shipped or counted lost, and the
//     loss-aware merge carries the lossy ring's typed gaps through.
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
  std::uint64_t total_wire = 0;   // also what processing cost was charged on
  sim::TimeNs app_done = 0;       // monitored app completion time
  // Integrity checks, evaluated against the kernel at the end of the run.
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

TraceScaleRun run_scenario(double scale, std::size_t capacity,
                           bool keep_archives, std::uint64_t seed) {
  const int daemons = std::max(16, static_cast<int>(160 * scale));
  const int app_iters = std::max(1000, static_cast<int>(10'000 * scale));
  const sim::TimeNs horizon = 10 * sim::kSecond;

  kernel::Cluster cluster;
  kernel::MachineConfig mcfg;
  mcfg.cpus = 1;  // everything contends: perturbation is visible
  mcfg.ktau.tracing = true;
  mcfg.ktau.trace_capacity = capacity;
  mcfg.seed = seed;
  kernel::Machine& m = cluster.add_machine(mcfg);

  // Sleeper wall: long periods, staggered phases — at steady state almost
  // every traced ring is clean in any given extraction period, which is
  // exactly the population a cursor drain skips.
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
  // Amplified processing cost so the charged wire bytes are well clear of
  // the per-period rounding granularity.
  kcfg.process_per_kb = 10'000;
  clients::Ktaud ktaud(m, kcfg);

  cluster.run_until(horizon);

  // Profiles are off, so the daemon's extraction bytes are exactly the
  // trace wire bytes it shipped.
  TraceScaleRun out;
  out.extractions = ktaud.extractions();
  out.records = ktaud.total_records();
  out.dropped = ktaud.total_dropped();
  out.steady_wire = ktaud.last_extract_bytes();
  out.total_wire = ktaud.total_extract_bytes();
  out.app_done = app.end_time;

  // Nothing vanishes: a zero-cursor read's shipped + counted-lost records
  // span every record the kernel ever pushed into each ring, live or
  // reaped (the app has exited by now) ...
  auto find_profile = [&m](meas::Pid pid) -> const meas::TaskProfile* {
    if (const meas::TaskProfile* live = m.find_profile(pid)) return live;
    for (const meas::ReapedTask& r : m.ktau().reaped()) {
      if (r.pid == pid) return &r.profile;
    }
    return nullptr;
  };
  user::KtauHandle handle(m.proc());
  const meas::TraceSnapshot inc =
      handle.get_trace_incremental(meas::Scope::All);
  out.conservation_ok = !inc.tasks.empty();
  std::uint64_t pushed = 0;
  for (const auto& t : inc.tasks) {
    const meas::TaskProfile* prof = find_profile(t.pid);
    out.conservation_ok =
        out.conservation_ok && prof != nullptr && prof->trace() != nullptr &&
        t.records.size() + t.dropped == t.next_seq &&
        t.next_seq == prof->trace()->total_pushed();
    pushed += t.next_seq;
  }
  // ... and so does the daemon's own stream, finished by one more read on
  // its cursor.
  std::uint64_t streamed = out.records + out.dropped;
  for (const auto& t :
       ktaud.handle().get_trace_incremental(meas::Scope::All).tasks) {
    streamed += t.records.size() + t.dropped;
  }
  out.conservation_ok = out.conservation_ok && streamed == pushed;

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

TrialSpec scale_trial(std::string name, double scale, std::size_t capacity,
                      bool keep_archives, std::uint64_t seed) {
  return {std::move(name), [scale, capacity, keep_archives, seed] {
            auto run = run_scenario(scale, capacity, keep_archives, seed);
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
  // The workload is fixed; the seed drives the machine's probe-cost draws.
  // drains2 shares drains' seed to re-check determinism.
  const std::uint64_t seed = p.seed(1);
  return {scale_trial("drains", p.scale, 4096, false, seed),
          scale_trial("drains2", p.scale, 4096, false, seed),
          scale_trial("lossy", p.scale, 64, true, seed)};
}

void trace_report(Report& rep, const ScenarioParams&,
                  const std::vector<TrialResult>& results) {
  const auto& drains = payload<TraceScaleRun>(results[0]);
  const auto& drains2 = payload<TraceScaleRun>(results[1]);
  const auto& lossy = payload<TraceScaleRun>(results[2]);

  rep.printf("\nextractions: %llu (4096-record ring), %llu (64-record ring)\n",
             static_cast<unsigned long long>(drains.extractions),
             static_cast<unsigned long long>(lossy.extractions));
  rep.printf("trace wire bytes/period at steady state: %llu\n",
             static_cast<unsigned long long>(drains.steady_wire));
  rep.printf("total trace wire bytes (charged as shipped): %llu\n",
             static_cast<unsigned long long>(drains.total_wire));
  rep.printf("records: %llu (dropped: %llu)\n",
             static_cast<unsigned long long>(drains.records),
             static_cast<unsigned long long>(drains.dropped));
  rep.printf("app completion: %.6f s\n",
             static_cast<double>(drains.app_done) / sim::kSecond);
  rep.printf("lossy ring (64 records): %llu dropped, %llu in typed gaps "
             "after merge\n\n",
             static_cast<unsigned long long>(lossy.dropped),
             static_cast<unsigned long long>(lossy.merged_gap_records));

  rep.gate("same extraction cadence at both ring capacities",
           drains.extractions == lossy.extractions &&
               drains.extractions > 100);
  rep.gate("no record loss on the 4096-record ring",
           drains.dropped == 0 && drains.records > 0);
  rep.gate("drains run is deterministic",
           drains.total_wire == drains2.total_wire &&
               drains.steady_wire == drains2.steady_wire &&
               drains.records == drains2.records &&
               drains.app_done == drains2.app_done);
  rep.gate("every pushed record is shipped or counted lost",
           drains.conservation_ok && lossy.conservation_ok);
  rep.gate("ring overwrite surfaces as typed gaps through the merge",
           lossy.dropped > 0 && lossy.gaps_ok);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "trace_scale",
     .title = "Trace drains at scale: cursor extraction on a sleeper-daemon "
              "node",
     .default_scale = kDefaultScale,
     .order = 62,
     .trials = trace_trials,
     .report = trace_report});

}  // namespace
}  // namespace ktau::expt
