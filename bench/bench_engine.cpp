// Engine hot-path microbenchmark (no paper table/figure — simulator
// infrastructure).
//
// Drives synthetic schedule/cancel/fire mixes and a real workload replay
// through two engines:
//   - LegacyEngine: a faithful copy of the seed implementation
//     (std::vector + std::push_heap, std::function callbacks, tombstone
//     unordered_set for cancellation);
//   - sim::Engine: the indexed 4-ary heap with generation-tagged slots and
//     InlineCallback small-buffer callbacks.
// Both run the *identical* deterministic operation sequence.  The
// deterministic scenario output asserts legacy/fast equivalence (same
// executed counts and the same callback side effects, bit for bit); the
// host ns/event timings and the speedup are inherently machine-dependent
// and therefore go to stderr only — they never enter the byte-identity
// contract or the JSON document.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "experiments/harness.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"

namespace ktau::expt {
namespace {

using sim::EventId;
using sim::TimeNs;

// ---------------------------------------------------------------------------
// The seed engine, verbatim (kept here as the permanent baseline).
// ---------------------------------------------------------------------------
class LegacyEngine {
 public:
  using Callback = std::function<void()>;

  TimeNs now() const { return now_; }

  EventId schedule_at(TimeNs t, Callback cb) {
    const EventId id = next_id_++;
    heap_.push_back(Record{std::max(t, now_), id, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return id;
  }

  EventId schedule_after(TimeNs dt, Callback cb) {
    return schedule_at(now_ + dt, std::move(cb));
  }

  void cancel(EventId id) {
    if (id == 0 || id >= next_id_) return;
    cancelled_.insert(id);
  }

  bool step() {
    Record rec;
    if (!pop_next(rec)) return false;
    now_ = rec.time;
    ++executed_;
    rec.cb();
    return true;
  }

  void run() {
    while (step()) {
    }
  }

  std::size_t pending() const { return heap_.size() - cancelled_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  struct Record {
    TimeNs time;
    EventId id;
    Callback cb;
  };
  struct Later {
    bool operator()(const Record& a, const Record& b) const {
      return a.time != b.time ? a.time > b.time : a.id > b.id;
    }
  };

  bool pop_next(Record& out) {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Record rec = std::move(heap_.back());
      heap_.pop_back();
      const auto it = cancelled_.find(rec.id);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      out = std::move(rec);
      return true;
    }
    return false;
  }

  TimeNs now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Record> heap_;
  std::unordered_set<EventId> cancelled_;
};

// ---------------------------------------------------------------------------
// Deterministic PRNG for the drivers (host-side; never touches sim state).
// ---------------------------------------------------------------------------
std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Per-run callback side-effect accumulators.  Trial-local (passed into every
// driver) so concurrent trials never share mutable state — file-scope sinks
// would be a data race under --jobs.  Doubling as the equivalence check:
// both engines must leave identical values behind.
struct Sinks {
  std::uint64_t cb = 0;       // timer-callback firings
  std::uint64_t payload = 0;  // payload-callback accumulation
};

// Callback payload shaped like the simulator's real lambdas — machine.cpp
// and knet capture [this, &cpu, &t, epoch]-style 24-32 byte closures, which
// is what makes std::function allocate on every schedule.
struct Payload {
  std::uint64_t* sink;
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t c;
  void operator()() const { *sink += a ^ b ^ c; }
};

Payload make_payload(std::uint64_t& rng, Sinks& sinks) {
  return Payload{&sinks.payload, splitmix(rng), rng, rng >> 7};
}

// Uniform: keep ~8k one-shot events in flight at random future offsets.
template <class E>
void drive_uniform(E& e, std::uint64_t target, Sinks& sinks) {
  std::uint64_t rng = 0x5EEDu;
  std::uint64_t scheduled = 0;
  while (e.executed() < target) {
    if (scheduled < target && scheduled - e.executed() < 8192) {
      const TimeNs dt = 1 + splitmix(rng) % 20000;
      e.schedule_after(dt, make_payload(rng, sinks));
      ++scheduled;
    } else {
      e.step();
    }
  }
}

// Timer-wheel-like: 512 periodic timers, each rescheduling itself, periods
// spread over ~2 decades — the tick/daemon-wakeup shape of the simulator.
template <class E>
void drive_timer_wheel(E& e, std::uint64_t target, Sinks& sinks) {
  struct Timer {
    E* e;
    Sinks* sinks;
    TimeNs period;
    std::uint64_t stop_at;
    void operator()() {
      ++sinks->cb;
      if (e->executed() < stop_at) e->schedule_after(period, *this);
    }
  };
  for (std::uint32_t i = 0; i < 512; ++i) {
    const Timer t{&e, &sinks, 100 + 173 * static_cast<TimeNs>(i), target};
    e.schedule_after(t.period, t);
  }
  while (e.executed() < target && e.step()) {
  }
  e.run();  // drain the tail
}

// Cancel-heavy: work/guard pairs where the work event cancels its guard
// before the guard's (strictly later) deadline — the machine.cpp
// burst_event pattern.  Two of three executed events are schedule+cancel
// traffic for the engine.
template <class E>
void drive_cancel_heavy(E& e, std::uint64_t target, Sinks& sinks) {
  std::uint64_t rng = 0xCA9CE1u;
  std::vector<EventId> guards(4096, 0);
  std::uint64_t scheduled = 0;
  while (e.executed() < target) {
    if (scheduled < target && scheduled - e.executed() < 4096) {
      const TimeNs dt = 1 + splitmix(rng) % 10000;
      const std::size_t slot = scheduled % guards.size();
      guards[slot] = e.schedule_after(dt + 50000, make_payload(rng, sinks));
      EventId* guard = &guards[slot];
      E* ep = &e;
      Sinks* sp = &sinks;
      const std::uint64_t epoch = scheduled;
      e.schedule_after(dt, [ep, sp, guard, epoch] {
        sp->payload += epoch;
        ep->cancel(*guard);
      });
      ++scheduled;
    } else {
      e.step();
    }
  }
}

// Mixed workload: the headline number.  60% one-shot events, 25%
// self-rescheduling timers, 15% cancellable pairs — the approximate blend
// of dispatch/burst, tick, and timeout traffic in a chiba run.  The
// per-event decisions and deltas are precomputed into a trace so the
// measured loop is engine work, not PRNG work, and both engines replay a
// byte-identical operation sequence.
struct MixedTrace {
  std::vector<std::uint8_t> action;  // 0 = one-shot, 1 = timer, 2 = pair
  std::vector<std::uint32_t> delta;
};

MixedTrace make_mixed_trace(std::uint64_t n) {
  MixedTrace tr;
  tr.action.resize(n);
  tr.delta.resize(n);
  std::uint64_t rng = 0x313EDu;
  std::uint64_t timers = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t r = splitmix(rng) % 100;
    tr.delta[i] = static_cast<std::uint32_t>(1 + splitmix(rng) % 20000);
    if (r < 60) {
      tr.action[i] = 0;
    } else if (r < 85 && timers < 512) {
      tr.action[i] = 1;
      ++timers;
    } else if (r >= 85) {
      tr.action[i] = 2;
    } else {
      tr.action[i] = 0;
    }
  }
  return tr;
}

template <class E>
void drive_mixed(E& e, std::uint64_t target, Sinks& sinks,
                 const MixedTrace& tr) {
  struct Timer {
    E* e;
    Sinks* sinks;
    TimeNs period;
    std::uint64_t stop_at;
    void operator()() {
      ++sinks->cb;
      if (e->executed() < stop_at) e->schedule_after(period, *this);
    }
  };
  std::uint64_t scheduled = 0;
  std::vector<EventId> guards(2048, 0);
  const Payload payload{&sinks.payload, 0x1111, 0x2222, 0x3333};
  while (e.executed() < target) {
    if (scheduled < target && scheduled - e.executed() < 8192) {
      const TimeNs dt = tr.delta[scheduled];
      switch (tr.action[scheduled]) {
        case 0:
          e.schedule_after(dt, payload);
          break;
        case 1:
          e.schedule_after(dt, Timer{&e, &sinks, dt, target});
          break;
        default: {
          const std::size_t slot = scheduled % guards.size();
          guards[slot] = e.schedule_after(dt + 40000, payload);
          EventId* guard = &guards[slot];
          E* ep = &e;
          Sinks* sp = &sinks;
          e.schedule_after(dt, [ep, sp, guard] {
            ++sp->payload;
            ep->cancel(*guard);
          });
          break;
        }
      }
      ++scheduled;
    } else {
      e.step();
    }
  }
}

// One mix run through both engines: the deterministic equivalence facts
// plus the (host-dependent, info-only) best-of-N timings.
struct MixOutcome {
  std::uint64_t events = 0;
  std::uint64_t legacy_executed = 0, fast_executed = 0;
  Sinks legacy_sinks, fast_sinks;
  double legacy_ns = 0, fast_ns = 0;  // host timing; stderr only
  double speedup() const { return legacy_ns / fast_ns; }
};

template <class Driver>
MixOutcome run_mix(std::uint64_t target, Driver driver) {
  MixOutcome r;
  r.events = target;
  // Warmup pass on each engine type (page in code, grow pools), then several
  // interleaved measured passes on fresh engines; keep the best (minimum
  // ns/event) per engine — the standard way to filter scheduler/host noise
  // out of a microbenchmark.
  constexpr int kReps = 3;
  const std::uint64_t warm = target / 10 + 1000;
  {
    LegacyEngine w;
    Sinks s;
    driver(w, warm, s);
  }
  {
    sim::Engine w;
    Sinks s;
    driver(w, warm, s);
  }
  r.legacy_ns = 1e30;
  r.fast_ns = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      LegacyEngine e;
      Sinks s;
      const auto t0 = std::chrono::steady_clock::now();
      driver(e, target, s);
      const auto t1 = std::chrono::steady_clock::now();
      r.legacy_ns = std::min(
          r.legacy_ns, std::chrono::duration<double, std::nano>(t1 - t0)
                               .count() /
                           static_cast<double>(e.executed()));
      r.legacy_executed = e.executed();
      r.legacy_sinks = s;
    }
    {
      sim::Engine e;
      Sinks s;
      const auto t0 = std::chrono::steady_clock::now();
      driver(e, target, s);
      const auto t1 = std::chrono::steady_clock::now();
      r.fast_ns = std::min(
          r.fast_ns, std::chrono::duration<double, std::nano>(t1 - t0)
                             .count() /
                         static_cast<double>(e.executed()));
      r.fast_executed = e.executed();
      r.fast_sinks = s;
    }
  }
  return r;
}

struct ReplayOutcome {
  std::uint64_t engine_events = 0;
  double wall_sec = 0;  // host timing; stderr only
};

std::vector<TrialSpec> engine_trials(const ScenarioParams& p) {
  const auto n =
      static_cast<std::uint64_t>(1'000'000 * std::max(p.scale, 1e-5));
  const std::uint64_t target = std::max<std::uint64_t>(n, 1);
  std::vector<TrialSpec> trials;
  trials.push_back({"uniform", [target] {
                      auto r = run_mix(target, [](auto& e, std::uint64_t t,
                                                  Sinks& s) {
                        drive_uniform(e, t, s);
                      });
                      return trial_result(
                          std::move(r),
                          {{"events", static_cast<double>(r.events)}});
                    }});
  trials.push_back({"timer_wheel", [target] {
                      auto r = run_mix(target, [](auto& e, std::uint64_t t,
                                                  Sinks& s) {
                        drive_timer_wheel(e, t, s);
                      });
                      return trial_result(
                          std::move(r),
                          {{"events", static_cast<double>(r.events)}});
                    }});
  trials.push_back({"cancel_heavy", [target] {
                      auto r = run_mix(target, [](auto& e, std::uint64_t t,
                                                  Sinks& s) {
                        drive_cancel_heavy(e, t, s);
                      });
                      return trial_result(
                          std::move(r),
                          {{"events", static_cast<double>(r.events)}});
                    }});
  trials.push_back(
      {"mixed", [target] {
         const MixedTrace trace =
             make_mixed_trace(std::max(target, target / 10 + 1000));
         auto r = run_mix(target, [&trace](auto& e, std::uint64_t t,
                                           Sinks& s) {
           drive_mixed(e, t, s, trace);
         });
         return trial_result(std::move(r),
                             {{"events", static_cast<double>(r.events)}});
       }});
  // Real workload replay: a miniature chiba run through the full simulated
  // stack (scheduler, IRQs, TCP, MPI, KTAU probes) on the live engine.
  ChibaRunConfig cfg;
  cfg.config = ChibaConfig::C64x2;
  cfg.workload = Workload::LU;
  cfg.ranks = 16;
  cfg.scale = 0.04 * p.scale;
  cfg.seed = p.seed(5);
  trials.push_back(
      {"replay", [cfg] {
         const auto t0 = std::chrono::steady_clock::now();
         const auto run = run_chiba(cfg);
         const auto t1 = std::chrono::steady_clock::now();
         ReplayOutcome r;
         r.engine_events = run.engine_events;
         r.wall_sec = std::chrono::duration<double>(t1 - t0).count();
         return trial_result(
             r, {{"engine_events", static_cast<double>(r.engine_events)}});
       }});
  return trials;
}

void engine_report(Report& rep, const ScenarioParams&,
                   const std::vector<TrialResult>& results) {
  static constexpr const char* kMixNames[] = {"uniform", "timer_wheel",
                                              "cancel_heavy", "mixed"};
  rep.printf("legacy (seed) vs indexed-4-ary-heap engine, identical "
             "deterministic operation sequences\n\n");
  double headline = 0;
  for (std::size_t i = 0; i < std::size(kMixNames); ++i) {
    const auto& m = payload<MixOutcome>(results[i]);
    rep.printf("%-16s %9llu events | executed legacy %llu / fast %llu | "
               "sinks legacy %llu/%llu fast %llu/%llu\n",
               kMixNames[i], static_cast<unsigned long long>(m.events),
               static_cast<unsigned long long>(m.legacy_executed),
               static_cast<unsigned long long>(m.fast_executed),
               static_cast<unsigned long long>(m.legacy_sinks.cb),
               static_cast<unsigned long long>(m.legacy_sinks.payload),
               static_cast<unsigned long long>(m.fast_sinks.cb),
               static_cast<unsigned long long>(m.fast_sinks.payload));
    // Host timings are machine-dependent: stderr only.
    std::ostream& info = rep.info();
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  [%s: legacy %.1f ns/ev, fast %.1f ns/ev, speedup "
                  "%.2fx]\n",
                  kMixNames[i], m.legacy_ns, m.fast_ns, m.speedup());
    info << line;
    if (i + 1 == std::size(kMixNames)) headline = m.speedup();
  }
  {
    char line[120];
    std::snprintf(line, sizeof(line),
                  "  [headline (mixed) speedup: %.2fx; engineering target "
                  ">= 2.5x]\n",
                  headline);
    rep.info() << line;
  }

  const auto& replay = payload<ReplayOutcome>(results[4]);
  rep.printf("\nreplay chiba 64x2 LU x16 (full stack): %llu engine events\n",
             static_cast<unsigned long long>(replay.engine_events));
  {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  [replay: %.2f s host wall = %.2f M ev/s]\n",
                  replay.wall_sec,
                  replay.wall_sec > 0
                      ? static_cast<double>(replay.engine_events) /
                            replay.wall_sec / 1e6
                      : 0.0);
    rep.info() << line;
  }
  rep.printf("\n");

  for (std::size_t i = 0; i < std::size(kMixNames); ++i) {
    const auto& m = payload<MixOutcome>(results[i]);
    rep.gate(std::string(kMixNames[i]) +
                 ": fast engine equivalent to legacy (executed + side "
                 "effects)",
             m.legacy_executed == m.fast_executed &&
                 m.legacy_executed >= m.events &&
                 m.legacy_sinks.cb == m.fast_sinks.cb &&
                 m.legacy_sinks.payload == m.fast_sinks.payload);
  }
  rep.gate("replay drives the full stack", replay.engine_events > 0);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "engine",
     .title = "Engine microbenchmark: seed (legacy) vs indexed-4-ary-heap "
              "engine",
     .default_scale = 1.0,
     .order = 90,
     .trials = engine_trials,
     .report = engine_report});

// ---------------------------------------------------------------------------
// Node-scale scenario: the conservative parallel scheduler on a synthetic
// ring cluster.
//
// N independent "nodes" (round-robin across the shard count under test)
// each run a dense self-rescheduling tick stream (1 µs spacing, a hash
// work-loop per tick) and periodically send order-sensitive messages to
// their +1 and +3 ring neighbours with exactly one link latency of delay —
// the same lookahead structure as the real knet fabric, at a density where
// each 70 µs epoch holds tens of events per node.  Every run is executed at
// a FIXED shard sweep {1,2,4,8} so stdout never depends on --sim-threads;
// the deterministic gates are checksum/executed/epoch equality across the
// sweep plus zero pool/mailbox growth after reserve(), and the wall-clock
// speedup (host-dependent) goes to stderr only.
// ---------------------------------------------------------------------------

constexpr TimeNs kScaleLookahead = 70 * sim::kMicrosecond;
constexpr TimeNs kScaleSpacing = 1 * sim::kMicrosecond;

struct ScaleNode {
  std::uint64_t state = 0;
  std::uint64_t ticks = 0;
};

struct ScaleCtx {
  sim::ShardedEngine* se = nullptr;
  std::vector<ScaleNode>* nodes = nullptr;
  unsigned shards = 1;
  std::uint32_t n = 0;
  TimeNs stop = 0;
};

// Order-sensitive fold (multiply-xor-mix): commits arriving in a different
// order produce a different state, so the cross-sweep checksum gate really
// checks the canonical commit order, not just message delivery.
std::uint64_t fold(std::uint64_t state, std::uint64_t v) {
  std::uint64_t z = state * 0x9E3779B97F4A7C15ull + v;
  z = (z ^ (z >> 29)) * 0xBF58476D1CE4E5B9ull;
  return z ^ (z >> 32);
}

void scale_tick(ScaleCtx* c, std::uint32_t id) {
  sim::Engine& e = c->se->shard(id % c->shards);
  ScaleNode& nd = (*c->nodes)[id];
  // The parallelizable per-event compute: a short hash chain.
  std::uint64_t s = nd.state;
  for (int i = 0; i < 24; ++i) s = fold(s, id);
  nd.state = s;
  ++nd.ticks;
  const auto send_to = [&](std::uint32_t dst) {
    const std::uint64_t payload = nd.state ^ dst;
    ScaleCtx* ctx = c;
    c->se->cross_schedule(id % c->shards, id, dst % c->shards,
                          e.now() + kScaleLookahead, [ctx, dst, payload] {
                            ScaleNode& peer = (*ctx->nodes)[dst];
                            peer.state = fold(peer.state, payload);
                          });
  };
  if (nd.ticks % 16 == 0) send_to((id + 1) % c->n);
  if (nd.ticks % 24 == 0) send_to((id + 3) % c->n);
  if (e.now() + kScaleSpacing <= c->stop) {
    e.schedule_after(kScaleSpacing,
                     [c, id] { scale_tick(c, id); });
  }
}

struct ScaleRun {
  std::uint64_t checksum = 0;
  std::uint64_t executed = 0;
  std::uint64_t epochs = 0;
  std::uint64_t grows = 0;  // pool + mailbox growth after reserve()
  double wall_sec = 0;      // host timing; stderr only
};

ScaleRun run_node_scale(std::uint32_t n, unsigned shards, TimeNs horizon) {
  sim::ShardedEngine se(shards, kScaleLookahead);
  se.reserve(16 * (n / shards) + 1024, 8 * (n / shards) + 256);
  std::vector<ScaleNode> nodes(n);
  ScaleCtx ctx{&se, &nodes, se.shards(), n, horizon};
  for (std::uint32_t id = 0; id < n; ++id) {
    std::uint64_t seed = id + 1;
    nodes[id].state = sim::splitmix64(seed);
    // Staggered start offsets decorrelate the tick grid a little while
    // staying a pure function of the node id.
    const TimeNs offset = (id * 7919u) % kScaleSpacing;
    ScaleCtx* c = &ctx;
    se.shard(id % se.shards())
        .schedule_at(offset, [c, id] { scale_tick(c, id); });
  }
  ScaleRun r;
  const auto t0 = std::chrono::steady_clock::now();
  se.run_until(horizon);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  r.executed = se.executed_total();
  r.epochs = se.epochs();
  r.grows = se.pool_grows_total() + se.mailbox_grows();
  std::uint64_t sum = 0;
  for (const ScaleNode& nd : nodes) sum = fold(sum, nd.state ^ nd.ticks);
  r.checksum = sum;
  return r;
}

constexpr unsigned kShardSweep[] = {1, 2, 4, 8};

struct ScaleOutcome {
  std::uint32_t nodes = 0;
  ScaleRun runs[std::size(kShardSweep)];
  bool repeat_stable = true;  // best-of-2 passes agreed bit for bit
};

ScaleOutcome run_scale_size(std::uint32_t n, double scale) {
  // Horizon: enough simulated time for ~2M * scale events, never fewer
  // than four full epochs so the epoch protocol is actually exercised.
  const double target = 2e6 * std::max(scale, 1e-3);
  const auto us = static_cast<TimeNs>(target / n);
  const TimeNs horizon =
      std::max<TimeNs>(4 * kScaleLookahead, us * sim::kMicrosecond);
  ScaleOutcome out;
  out.nodes = n;
  for (std::size_t i = 0; i < std::size(kShardSweep); ++i) {
    ScaleRun best = run_node_scale(n, kShardSweep[i], horizon);
    const ScaleRun again = run_node_scale(n, kShardSweep[i], horizon);
    out.repeat_stable = out.repeat_stable &&
                        again.checksum == best.checksum &&
                        again.executed == best.executed;
    best.wall_sec = std::min(best.wall_sec, again.wall_sec);
    out.runs[i] = best;
  }
  return out;
}

std::vector<TrialSpec> engine_scale_trials(const ScenarioParams& p) {
  std::vector<std::uint32_t> sizes = {1024, 4096};
  if (p.scale >= 2.0) sizes.push_back(16384);
  std::vector<TrialSpec> trials;
  for (const std::uint32_t n : sizes) {
    trials.push_back({"nodes_" + std::to_string(n), [n, scale = p.scale] {
                        auto r = run_scale_size(n, scale);
                        return trial_result(
                            std::move(r),
                            {{"events",
                              static_cast<double>(r.runs[0].executed)}});
                      }});
  }
  return trials;
}

void engine_scale_report(Report& rep, const ScenarioParams&,
                         const std::vector<TrialResult>& results) {
  rep.printf("conservative parallel scheduler, ring cluster, shard sweep "
             "{1,2,4,8}, lookahead 70 us\n\n");
  for (const TrialResult& res : results) {
    const auto& o = payload<ScaleOutcome>(res);
    rep.printf("nodes=%-6u events %llu  epochs %llu  checksum %016llx\n",
               o.nodes, static_cast<unsigned long long>(o.runs[0].executed),
               static_cast<unsigned long long>(o.runs[0].epochs),
               static_cast<unsigned long long>(o.runs[0].checksum));
    // Wall clock and speedup are host-dependent: stderr only.
    char line[200];
    std::snprintf(
        line, sizeof(line),
        "  [nodes=%u walls s1=%.3f s2=%.3f s4=%.3f s8=%.3f — speedup "
        "s4 vs s1 %.2fx; target >= 2x given >= 4 host cores]\n",
        o.nodes, o.runs[0].wall_sec, o.runs[1].wall_sec, o.runs[2].wall_sec,
        o.runs[3].wall_sec,
        o.runs[2].wall_sec > 0 ? o.runs[0].wall_sec / o.runs[2].wall_sec
                               : 0.0);
    rep.info() << line;
  }
  rep.printf("\n");
  for (const TrialResult& res : results) {
    const auto& o = payload<ScaleOutcome>(res);
    const std::string tag = "nodes=" + std::to_string(o.nodes);
    bool identical = true;
    bool zero_grow = true;
    bool epochs_eq = true;
    for (const ScaleRun& r : o.runs) {
      identical = identical && r.checksum == o.runs[0].checksum &&
                  r.executed == o.runs[0].executed;
      epochs_eq = epochs_eq && r.epochs == o.runs[0].epochs;
      zero_grow = zero_grow && r.grows == 0;
    }
    rep.gate(tag + ": checksum+executed identical across shard counts",
             identical);
    rep.gate(tag + ": epoch count invariant across shard counts", epochs_eq);
    rep.gate(tag + ": zero pool/mailbox growth after reserve()", zero_grow);
    rep.gate(tag + ": repeated runs bit-identical", o.repeat_stable);
  }
}

[[maybe_unused]] const bool registered_scale = register_scenario(
    {.name = "engine_scale",
     .title = "Parallel scheduler node-scale: ring cluster across shard "
              "sweep {1,2,4,8}",
     .default_scale = 1.0,
     .order = 91,
     .trials = engine_scale_trials,
     .report = engine_scale_report});

}  // namespace
}  // namespace ktau::expt
