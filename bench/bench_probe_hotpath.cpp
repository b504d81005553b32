// google-benchmark microbenchmarks of this implementation's probe hot path
// on the host machine (engineering sanity numbers next to Table 4's
// simulated-cycle distribution, which is the registered "table4"
// scenario).  Host timings are not deterministic, so they never feed
// scenario output or the matrix document.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "ktau/system.hpp"

namespace {

using namespace ktau;

void BM_ProbePairEnabled(benchmark::State& state) {
  meas::KtauConfig cfg;
  cfg.charge_overhead = true;
  meas::KtauSystem sys(cfg);
  const auto ev = sys.map_event("bench_event", meas::Group::Syscall);
  meas::TaskProfile prof;
  meas::CpuClock clock;
  for (auto _ : state) {
    sys.entry(clock, &prof, ev);
    sys.exit(clock, &prof, ev);
    benchmark::DoNotOptimize(clock.cursor);
  }
}
BENCHMARK(BM_ProbePairEnabled);

void BM_ProbePairDisabled(benchmark::State& state) {
  meas::KtauConfig cfg;
  cfg.runtime_enabled = meas::kNoGroups;  // the "Ktau Off" fast path
  meas::KtauSystem sys(cfg);
  const auto ev = sys.map_event("bench_event", meas::Group::Syscall);
  meas::TaskProfile prof;
  meas::CpuClock clock;
  for (auto _ : state) {
    sys.entry(clock, &prof, ev);
    sys.exit(clock, &prof, ev);
    benchmark::DoNotOptimize(clock.cursor);
  }
}
BENCHMARK(BM_ProbePairDisabled);

void BM_ProbePairNotCompiled(benchmark::State& state) {
  meas::KtauConfig cfg;
  cfg.compiled_in = false;  // the "Base" kernel
  meas::KtauSystem sys(cfg);
  const auto ev = sys.map_event("bench_event", meas::Group::Syscall);
  meas::TaskProfile prof;
  meas::CpuClock clock;
  for (auto _ : state) {
    sys.entry(clock, &prof, ev);
    sys.exit(clock, &prof, ev);
    benchmark::DoNotOptimize(clock.cursor);
  }
}
BENCHMARK(BM_ProbePairNotCompiled);

// One kernel path's hidden probe pairs (DESIGN.md §3a) at the densities the
// model charges: 4 (sched, irq), 10 (syscall, tcp), 60 (timer) and 150 (the
// Table 3 timer density).  Items are hidden pairs, so the reported rate
// gives host time per pair.
void BM_HiddenPairs(benchmark::State& state) {
  meas::KtauSystem sys(meas::KtauConfig{});
  meas::CpuClock clock;
  const auto pairs = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    sys.hidden_pairs(clock, meas::Group::Irq, pairs);
    benchmark::DoNotOptimize(clock.cursor);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HiddenPairs)->Arg(4)->Arg(10)->Arg(60)->Arg(150);

void BM_AtomicEvent(benchmark::State& state) {
  meas::KtauSystem sys(meas::KtauConfig{});
  const auto ev = sys.map_event("bench_atomic", meas::Group::Net);
  meas::TaskProfile prof;
  meas::CpuClock clock;
  double v = 0;
  for (auto _ : state) {
    sys.atomic(clock, &prof, ev, v);
    v += 1.0;
  }
}
BENCHMARK(BM_AtomicEvent);

}  // namespace

BENCHMARK_MAIN();
