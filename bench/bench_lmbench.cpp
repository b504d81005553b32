// LMbench micro-workloads on the simulated kernel (the paper exercised
// KTAU with LMBENCH in its controlled experiments, §5) — and the
// measurement-cost angle: how much does full KTAU instrumentation inflate
// the micro numbers vs the Base kernel?
//
// The micro-workloads run fixed iteration counts (they are latency probes,
// not paper-length jobs), so --scale is accepted but has no effect here.
#include <string>
#include <vector>

#include "apps/lmbench.hpp"
#include "experiments/harness.hpp"
#include "kernel/cluster.hpp"

namespace ktau::expt {
namespace {

kernel::MachineConfig node(bool instrumented) {
  kernel::MachineConfig cfg;
  cfg.cpus = 2;
  cfg.ktau.compiled_in = instrumented;
  return cfg;
}

double run_lat_syscall(bool on) {
  kernel::Cluster cluster;
  kernel::Machine& m = cluster.add_machine(node(on));
  const auto res = apps::lat_syscall_null(cluster, m, 20'000);
  // Base kernel records nothing; use wall time per call.
  if (res.calls == 0) {
    kernel::Cluster c2;
    kernel::Machine& m2 = c2.add_machine(node(on));
    kernel::Task& t = m2.spawn("lat");
    t.program = [](void) -> kernel::Program {
      for (int i = 0; i < 20'000; ++i) {
        co_await kernel::NullSyscall{};
      }
    }();
    m2.launch(t);
    c2.run();
    return static_cast<double>(t.end_time - t.start_time) / 20'000 / 1e3;
  }
  return res.per_call_us;
}

double run_lat_ctx(bool on) {
  kernel::Cluster cluster;
  kernel::Machine& m = cluster.add_machine(node(on));
  knet::Fabric fabric(cluster);
  return apps::lat_ctx(cluster, m, fabric, 2'000).handoff_us;
}

double run_bw_tcp(bool on) {
  kernel::Cluster cluster;
  cluster.add_machine(node(on));
  cluster.add_machine(node(on));
  knet::NetConfig net;
  net.latency_jitter_mean = 0;
  knet::Fabric fabric(cluster, net);
  return apps::bw_tcp(cluster, fabric, 0, 1, 50'000'000).mbytes_per_sec;
}

std::vector<TrialSpec> lmbench_trials(const ScenarioParams&) {
  std::vector<TrialSpec> trials;
  struct Micro {
    const char* name;
    double (*run)(bool);
  };
  static constexpr Micro kMicros[] = {
      {"lat_syscall", run_lat_syscall},
      {"lat_ctx", run_lat_ctx},
      {"bw_tcp", run_bw_tcp},
  };
  for (const auto& micro : kMicros) {
    for (const bool on : {false, true}) {
      trials.push_back({std::string(micro.name) + (on ? "/ktau" : "/base"),
                        [run = micro.run, on, name = micro.name] {
                          const double v = run(on);
                          return trial_result(v, {{name, v}});
                        }});
    }
  }
  return trials;
}

void lmbench_report(Report& rep, const ScenarioParams&,
                    const std::vector<TrialResult>& results) {
  struct Row {
    double base;
    double instrumented;
  };
  const Row lat_syscall = {payload<double>(results[0]),
                           payload<double>(results[1])};
  const Row lat_ctx = {payload<double>(results[2]),
                       payload<double>(results[3])};
  const Row bw_tcp = {payload<double>(results[4]),
                      payload<double>(results[5])};

  rep.printf("%-22s %10s %-6s %10s %-6s\n", "benchmark", "base", "", "ktau",
             "");
  auto print_row = [&](const char* name, const char* unit, const Row& row) {
    rep.printf("%-22s %10.2f %-6s %10.2f %-6s  (%+.1f%%)\n", name, row.base,
               unit, row.instrumented, unit,
               row.base > 0
                   ? (row.instrumented - row.base) / row.base * 100.0
                   : 0.0);
  };
  print_row("lat_syscall null", "us", lat_syscall);
  print_row("lat_ctx (2 procs)", "us", lat_ctx);
  print_row("bw_tcp (cross node)", "MB/s", bw_tcp);

  rep.printf(
      "\nreading: primitive latencies carry the instrumentation cost of\n"
      "every probe on their path (several probe pairs per syscall at\n"
      "~540 cycles each), while streaming bandwidth is serialization-bound\n"
      "and barely moves — matching the paper's observation that overhead\n"
      "concentrates where kernel events are frequent relative to work.\n\n");

  rep.gate("instrumentation inflates null-syscall latency",
           lat_syscall.instrumented > lat_syscall.base);
  rep.gate("instrumentation does not speed up context switches",
           lat_ctx.instrumented >= lat_ctx.base);
  rep.gate("streaming bandwidth barely moves (<5% drop)",
           bw_tcp.instrumented > 0.95 * bw_tcp.base);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "lmbench",
     .title = "LMbench micro-workloads, Base kernel vs fully instrumented "
              "KTAU kernel",
     .default_scale = kDefaultScale,
     .order = 50,
     .trials = lmbench_trials,
     .report = lmbench_report});

}  // namespace
}  // namespace ktau::expt
