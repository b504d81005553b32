// Ablation: the lossy circular trace buffer (paper §4.2).
//
// KTAU chose fixed-size per-process ring buffers that silently overwrite
// the oldest records when the reader (ktaud) falls behind.  This sweep
// quantifies the design triangle: buffer capacity x extraction period ->
// record loss, using a syscall-heavy workload.  The workload is a fixed
// burst pattern, so --scale is accepted but has no effect here.
#include <string>
#include <vector>

#include "clients/ktaud.hpp"
#include "experiments/harness.hpp"
#include "kernel/cluster.hpp"

namespace ktau::expt {
namespace {

using kernel::Compute;
using kernel::NullSyscall;
using kernel::Program;
using kernel::SleepFor;
using sim::kMillisecond;
using sim::kSecond;

constexpr std::size_t kCapacities[] = {128, 512, 2048, 8192, 1 << 15};
constexpr sim::TimeNs kPeriods[] = {50 * kMillisecond, 200 * kMillisecond,
                                    1000 * kMillisecond};

struct CaseResult {
  std::uint64_t captured = 0;
  std::uint64_t dropped = 0;
  double loss_pct() const {
    const double total = static_cast<double>(captured + dropped);
    return total > 0 ? static_cast<double>(dropped) / total * 100.0 : 0.0;
  }
};

CaseResult run_case(std::size_t capacity, sim::TimeNs period) {
  kernel::Cluster cluster;
  kernel::MachineConfig cfg;
  cfg.cpus = 2;
  cfg.ktau.tracing = true;
  cfg.ktau.trace_capacity = capacity;
  kernel::Machine& m = cluster.add_machine(cfg);

  kernel::Task& worker = m.spawn("worker");
  worker.program = [](void) -> Program {
    for (int burst = 0; burst < 100; ++burst) {
      for (int i = 0; i < 150; ++i) co_await NullSyscall{};
      co_await Compute{8 * kMillisecond};
      co_await SleepFor{12 * kMillisecond};
    }
  }();
  m.launch(worker);

  clients::KtaudConfig kcfg;
  kcfg.period = period;
  kcfg.until = 4 * kSecond;
  kcfg.collect_profiles = false;
  clients::Ktaud ktaud(m, kcfg);

  cluster.run_until(5 * kSecond);
  CaseResult res;
  res.captured = ktaud.total_records();
  res.dropped = ktaud.total_dropped();
  return res;
}

std::vector<TrialSpec> trace_buffer_trials(const ScenarioParams&) {
  std::vector<TrialSpec> trials;
  for (const auto capacity : kCapacities) {
    for (const auto period : kPeriods) {
      trials.push_back(
          {"cap" + std::to_string(capacity) + "/period" +
               std::to_string(period / kMillisecond) + "ms",
           [capacity, period] {
             const auto res = run_case(capacity, period);
             return trial_result(
                 res, {{"captured", static_cast<double>(res.captured)},
                       {"dropped", static_cast<double>(res.dropped)},
                       {"loss_pct", res.loss_pct()}});
           }});
    }
  }
  return trials;
}

void trace_buffer_report(Report& rep, const ScenarioParams&,
                         const std::vector<TrialResult>& results) {
  constexpr std::size_t kNumPeriods = std::size(kPeriods);
  auto loss = [&](std::size_t cap_idx, std::size_t period_idx) {
    return payload<CaseResult>(results[cap_idx * kNumPeriods + period_idx])
        .loss_pct();
  };

  rep.printf("(syscall-heavy workload, ~300 records per burst)\n\n");
  rep.printf("%10s |", "capacity");
  for (const auto period : kPeriods) {
    rep.printf("  period %4llu ms |",
               static_cast<unsigned long long>(period / kMillisecond));
  }
  rep.printf("\n");
  for (std::size_t c = 0; c < std::size(kCapacities); ++c) {
    rep.printf("%10zu |", kCapacities[c]);
    for (std::size_t p = 0; p < kNumPeriods; ++p) {
      rep.printf(" %6.2f%% dropped |", loss(c, p));
    }
    rep.printf("\n");
  }
  rep.printf(
      "\nreading: loss falls with capacity and with faster extraction; the\n"
      "paper's design accepts loss rather than blocking the kernel or\n"
      "growing buffers unboundedly (\"trace data may be lost if the buffer\n"
      "is not read fast enough\", section 4.2).\n\n");

  // Monotone trends (weak form: non-increasing along each axis, with a
  // strict drop across the full range where there is loss to shed).
  bool cap_monotone = true;
  for (std::size_t p = 0; p < kNumPeriods; ++p) {
    for (std::size_t c = 1; c < std::size(kCapacities); ++c) {
      cap_monotone = cap_monotone && loss(c, p) <= loss(c - 1, p) + 1e-9;
    }
  }
  rep.gate("loss falls (weakly) with buffer capacity", cap_monotone);

  bool period_monotone = true;
  for (std::size_t c = 0; c < std::size(kCapacities); ++c) {
    for (std::size_t p = 1; p < kNumPeriods; ++p) {
      period_monotone =
          period_monotone && loss(c, p - 1) <= loss(c, p) + 1e-9;
    }
  }
  rep.gate("loss falls (weakly) with faster extraction", period_monotone);

  rep.gate("smallest buffer at slowest period actually loses records",
           loss(0, kNumPeriods - 1) > 0);
  rep.gate("largest buffer at fastest period is lossless",
           loss(std::size(kCapacities) - 1, 0) == 0);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "ablation_trace_buffer",
     .title = "Ablation: trace buffer capacity x ktaud period -> loss",
     .default_scale = kDefaultScale,
     .order = 71,
     .trials = trace_buffer_trials,
     .report = trace_buffer_report});

}  // namespace
}  // namespace ktau::expt
