// Engine scenarios (no paper table/figure — simulator infrastructure).
//
// `engine` drives sim::Engine once through each of four synthetic
// schedule/cancel/fire mixes, then replays a miniature Chiba run through
// the full simulated stack.  Each mix's gate is a conservation law its
// drive function counts: every scheduled event executed, was cancelled, or
// is still pending.  Every cancel targets its own work event's guard, which
// is strictly later, so each issued cancel must take effect.  The executed
// counts and the callback sinks are metrics that BENCH_budgets pins
// exactly; the event-order reference is Engine.StressMatchesReferenceModel
// in tests/test_sim_engine.cpp.  The harness's per-trial stderr line is the
// only host timing.
//
// `engine_scale` runs the conservative parallel scheduler on a synthetic
// ring cluster across a fixed shard sweep (see below).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
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
// Deterministic PRNG for the drivers (host-side; never touches sim state).
// ---------------------------------------------------------------------------
std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Per-run counts.  Trial-local (passed into every drive function) so
// concurrent trials never share mutable state — file-scope counters would
// be a data race under --jobs.
struct Tally {
  std::uint64_t scheduled = 0;  // schedule calls, callbacks' included
  std::uint64_t cancelled = 0;  // cancel calls
  std::uint64_t cb = 0;         // timer-callback firings
  std::uint64_t payload = 0;    // payload-callback accumulation
};

// Callback payload shaped like the simulator's real lambdas — machine.cpp
// and knet capture [this, &cpu, &t, epoch]-style 24-32 byte closures, which
// InlineCallback holds without a heap allocation.
struct Payload {
  std::uint64_t* sink;
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t c;
  void operator()() const { *sink += a ^ b ^ c; }
};

Payload make_payload(std::uint64_t& rng, Tally& t) {
  return Payload{&t.payload, splitmix(rng), rng, rng >> 7};
}

// A periodic timer that reschedules itself until the engine has executed
// `stop_at` events — the tick/daemon-wakeup shape of the simulator.
struct Timer {
  sim::Engine* e;
  Tally* t;
  TimeNs period;
  std::uint64_t stop_at;
  void operator()() const {
    ++t->cb;
    if (e->executed() < stop_at) {
      ++t->scheduled;
      e->schedule_after(period, *this);
    }
  }
};

// A work/guard pair — the machine.cpp burst_event pattern: the guard fires
// `gap` after the work unless the work, which adds `add` to the payload
// sink, cancels it first.  It always does, since the guard is later.
void schedule_pair(sim::Engine& e, Tally& t, TimeNs dt, TimeNs gap,
                   const Payload& guard_cb, std::uint64_t add) {
  const EventId guard = e.schedule_after(dt + gap, guard_cb);
  sim::Engine* ep = &e;
  Tally* tp = &t;
  e.schedule_after(dt, [ep, tp, guard, add] {
    tp->payload += add;
    ++tp->cancelled;
    ep->cancel(guard);
  });
  t.scheduled += 2;
}

// Uniform: keep ~8k one-shot events in flight at random future offsets.
void drive_uniform(sim::Engine& e, std::uint64_t target, Tally& t) {
  std::uint64_t rng = 0x5EEDu;
  while (e.executed() < target) {
    if (t.scheduled < target && t.scheduled - e.executed() < 8192) {
      const TimeNs dt = 1 + splitmix(rng) % 20000;
      e.schedule_after(dt, make_payload(rng, t));
      ++t.scheduled;
    } else {
      e.step();
    }
  }
}

// Timer-wheel-like: 512 periodic timers, periods spread over ~2 decades,
// run until the last one stops.
void drive_timer_wheel(sim::Engine& e, std::uint64_t target, Tally& t) {
  for (std::uint32_t i = 0; i < 512; ++i) {
    const Timer timer{&e, &t, 100 + 173 * static_cast<TimeNs>(i), target};
    e.schedule_after(timer.period, timer);
    ++t.scheduled;
  }
  e.run();
}

// Cancel-heavy: ~4k work/guard pairs in flight, each guard 50 us after its
// work.  Each pair is two schedules, one cancel and one fire.
void drive_cancel_heavy(sim::Engine& e, std::uint64_t target, Tally& t) {
  std::uint64_t rng = 0xCA9CE1u;
  std::uint64_t pairs = 0;
  while (e.executed() < target) {
    if (pairs < target && pairs - e.executed() < 4096) {
      const TimeNs dt = 1 + splitmix(rng) % 10000;
      schedule_pair(e, t, dt, 50000, make_payload(rng, t), pairs);
      ++pairs;
    } else {
      e.step();
    }
  }
}

// Mixed: 60% one-shot events, 25% self-rescheduling timers (at most 512),
// 15% work/guard pairs — the approximate blend of dispatch/burst, tick,
// and timeout traffic in a Chiba run.
void drive_mixed(sim::Engine& e, std::uint64_t target, Tally& t) {
  std::uint64_t rng = 0x313EDu;
  std::uint64_t actions = 0;
  std::uint64_t timers = 0;
  // a ^ b ^ c is nonzero, so every one-shot counts in the payload sink.
  const Payload payload{&t.payload, 0x1111, 0x2222, 0x4444};
  while (e.executed() < target) {
    if (actions < target && actions - e.executed() < 8192) {
      const std::uint64_t r = splitmix(rng) % 100;
      const TimeNs dt = 1 + splitmix(rng) % 20000;
      if (r >= 85) {
        schedule_pair(e, t, dt, 40000, payload, 1);
      } else if (r >= 60 && timers < 512) {
        ++timers;
        e.schedule_after(dt, Timer{&e, &t, dt, target});
        ++t.scheduled;
      } else {
        e.schedule_after(dt, payload);
        ++t.scheduled;
      }
      ++actions;
    } else {
      e.step();
    }
  }
}

struct Mix {
  const char* name;
  void (*drive)(sim::Engine&, std::uint64_t, Tally&);
};

constexpr Mix kMixes[] = {{"uniform", drive_uniform},
                          {"timer_wheel", drive_timer_wheel},
                          {"cancel_heavy", drive_cancel_heavy},
                          {"mixed", drive_mixed}};

// One mix's single pass: its tally and the engine's own counts.
struct MixOutcome {
  std::uint64_t target = 0;
  std::uint64_t executed = 0;
  std::uint64_t pending = 0;
  Tally tally;

  // Every scheduled event executed, was cancelled, or is still pending, and
  // the mix executed at least its target.
  bool conserved() const {
    return tally.scheduled == executed + tally.cancelled + pending &&
           executed >= target;
  }
};

MixOutcome run_mix(const Mix& mix, std::uint64_t target) {
  sim::Engine e;
  MixOutcome r;
  r.target = target;
  mix.drive(e, target, r.tally);
  r.executed = e.executed();
  r.pending = e.pending();
  return r;
}

// A 64-bit sink folded to 32 bits, so the JSON double carries it exactly.
std::uint32_t fold32(std::uint64_t v) {
  return static_cast<std::uint32_t>(v >> 32) ^ static_cast<std::uint32_t>(v);
}

std::vector<TrialSpec> engine_trials(const ScenarioParams& p) {
  const auto n =
      static_cast<std::uint64_t>(1'000'000 * std::max(p.scale, 1e-5));
  const std::uint64_t target = std::max<std::uint64_t>(n, 1);
  std::vector<TrialSpec> trials;
  for (const Mix& mix : kMixes) {
    trials.push_back({mix.name, [&mix, target] {
                        const MixOutcome r = run_mix(mix, target);
                        return trial_result(
                            r, {{"executed", static_cast<double>(r.executed)},
                                {"sink_cb", fold32(r.tally.cb)},
                                {"sink_payload", fold32(r.tally.payload)}});
                      }});
  }
  // Real workload replay: a miniature chiba run through the full simulated
  // stack (scheduler, IRQs, TCP, MPI, KTAU probes) on the live engine.
  ChibaRunConfig cfg;
  cfg.config = ChibaConfig::C64x2;
  cfg.workload = Workload::LU;
  cfg.ranks = 16;
  cfg.scale = 0.04 * p.scale;
  cfg.seed = p.seed(5);
  trials.push_back({"replay", [cfg] {
                      const std::uint64_t events = run_chiba(cfg).engine_events;
                      return trial_result(
                          events,
                          {{"engine_events", static_cast<double>(events)}});
                    }});
  return trials;
}

void engine_report(Report& rep, const ScenarioParams&,
                   const std::vector<TrialResult>& results) {
  rep.printf("sim::Engine, one pass per mix: scheduled = executed + "
             "cancelled + pending\n\n");
  for (std::size_t i = 0; i < std::size(kMixes); ++i) {
    const auto& m = payload<MixOutcome>(results[i]);
    rep.printf("%-13s scheduled %8llu = executed %8llu + cancelled %7llu + "
               "pending %6llu | sinks %u/%u\n",
               kMixes[i].name,
               static_cast<unsigned long long>(m.tally.scheduled),
               static_cast<unsigned long long>(m.executed),
               static_cast<unsigned long long>(m.tally.cancelled),
               static_cast<unsigned long long>(m.pending), fold32(m.tally.cb),
               fold32(m.tally.payload));
  }
  const auto replay_events =
      payload<std::uint64_t>(results[std::size(kMixes)]);
  rep.printf("\nreplay chiba 64x2 LU x16 (full stack): %llu engine events\n\n",
             static_cast<unsigned long long>(replay_events));

  for (std::size_t i = 0; i < std::size(kMixes); ++i) {
    rep.gate(std::string(kMixes[i].name) +
                 ": scheduled == executed + cancelled + pending",
             payload<MixOutcome>(results[i]).conserved());
  }
  rep.gate("replay drives the full stack", replay_events > 0);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "engine",
     .title = "Engine mixes: one sim::Engine pass per schedule/cancel/fire "
              "mix, plus a full-stack replay",
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
