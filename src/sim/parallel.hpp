// Conservative parallel discrete-event scheduler: one cluster, N shards.
//
// ShardedEngine owns S independent Engines (the indexed 4-ary heaps) and
// runs them in lockstep synchronous windows.  Every run uses this epoch
// protocol, whatever the shard count.  The model that makes it safe is the
// knet fabric: nodes interact *only* through links with a nonzero one-way
// latency L (NetConfig::latency, 70 µs), so an event executing at time t on
// one shard can influence another shard no earlier than t + L.  A cluster
// without a fabric has no cross-node traffic at all, so its lookahead is
// unbounded (kTimeMax: one window per drive); wiring a fabric lowers it to
// L.  Each epoch:
//
//   1. (barrier, single-threaded) commits the previous window's cross-shard
//      messages into their destination heaps in canonical order, computes
//      m = min over all shards of the earliest pending event, and publishes
//      the horizon h = m + L (saturating);
//   2. (parallel) every shard executes all of its events with time < h,
//      appending cross-shard sends to per-(src,dst) outboxes.
//
// Determinism (the `--sim-threads N` byte-identity invariant, DESIGN.md
// §11): epoch boundaries are a pure function of the *global* pending-event
// multiset (m does not depend on how events are partitioned), every
// cross-node message — even one whose destination shares the sender's
// shard — is committed only at the barrier, and commits are ordered by
// (time, src_key, per-source emit order) before sequence numbers are
// assigned.  Hence each shard's (time, seq) execution order is independent
// of the shard count, and a 1-shard run is bit-identical to an 8-shard
// run.  Zero lookahead is rejected: its windows would be empty, and a run
// would spin at the barrier forever.
//
// Outboxes and the commit scratch are retained across epochs (clear keeps
// capacity), so the steady-state mailbox path performs no allocation; see
// mailbox_grows().
#pragma once

#include <barrier>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace ktau::sim {

class ShardedEngine {
 public:
  /// `shards` event queues with conservative lookahead `lookahead`.
  /// Throws std::invalid_argument when lookahead == 0.
  ShardedEngine(unsigned shards, TimeNs lookahead);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  unsigned shards() const { return static_cast<unsigned>(engines_.size()); }
  TimeNs lookahead() const { return lookahead_; }
  /// Lowers the lookahead to `lookahead` if that is smaller.  Call between
  /// runs; throws std::invalid_argument when lookahead == 0.
  void lower_lookahead(TimeNs lookahead);

  Engine& shard(unsigned s) { return *engines_[s]; }
  const Engine& shard(unsigned s) const { return *engines_[s]; }

  /// Committed global time: the farthest any shard has advanced.  All
  /// shards agree after run_until().  Must NOT be called from inside a
  /// run — the shards' clocks advance concurrently, so reading
  /// them from a simulation callback is a data race (asserted).  Event
  /// code wanting the current time uses its own shard's Engine::now().
  TimeNs now() const;

  /// Schedules `cb` at absolute time `t` on `dst_shard` from code running
  /// on `src_shard`.  Inside a run the message is buffered and committed at
  /// the next barrier in canonical (time, src_key, emit order); outside a
  /// run (setup) it schedules directly.
  /// `t` must respect the lookahead: t >= src shard now() + lookahead.
  /// `src_key` canonically orders equal-time commits from different
  /// sources (callers pass the sending node id).
  template <typename F>
  void cross_schedule(unsigned src_shard, std::uint32_t src_key,
                      unsigned dst_shard, TimeNs t, F&& cb) {
    if (!running_) {
      engines_[dst_shard]->schedule_at(t, std::forward<F>(cb));
      return;
    }
    // Always-on (not just assert): a violating schedule would silently
    // corrupt the epoch-window safety argument in release builds, which is
    // exactly where the CI identity/TSan gates run.  One compare on the
    // send path; the throw is out of line.
    if (t < time_add_sat(engines_[src_shard]->now(), lookahead_)) {
      lookahead_violation(engines_[src_shard]->now(), t);
    }
    Outbox& box = outbox_[src_shard * engines_.size() + dst_shard];
    if (box.size() == box.capacity()) ++mailbox_grows_[src_shard].count;
    box.push_back(Msg{t, src_key, Engine::Callback(std::forward<F>(cb))});
  }

  /// Runs until no events remain anywhere (and all mailboxes are drained).
  void run();

  /// Runs events with time <= `t`, then advances every shard's now() to `t`.
  void run_until(TimeNs t);

  /// Pre-sizes every shard's pools for `events_per_shard` pending events
  /// and every (src,dst) mailbox for `mailbox_per_link` messages per epoch.
  void reserve(std::size_t events_per_shard, std::size_t mailbox_per_link);

  std::uint64_t executed_total() const;
  std::size_t pending_total() const;
  /// Sum of every shard's Engine::pool_grows().
  std::uint64_t pool_grows_total() const;
  /// Outbox/commit-scratch capacity growths (0 in a well-reserved run).
  std::uint64_t mailbox_grows() const;
  /// Synchronous windows executed so far.
  std::uint64_t epochs() const { return epochs_; }

 private:
  struct Msg {
    TimeNs time;
    std::uint32_t src_key;
    Engine::Callback cb;
  };
  using Outbox = std::vector<Msg>;
  /// Cache-line pad: each source shard's worker bumps only its own counter.
  struct alignas(64) GrowCounter {
    std::uint64_t count = 0;
  };

  /// Reports a cross_schedule whose time lands inside the current window.
  [[noreturn]] static void lookahead_violation(TimeNs src_now, TimeNs t);

  /// Commits all outboxes, then computes the next window.  Returns false
  /// when the run is complete (no pending events, or all beyond `t`).
  /// Single-threaded: runs under the epoch barrier's completion step.
  bool begin_epoch(bool bounded, TimeNs t);
  void commit_mailboxes();
  void drive(bool bounded, TimeNs t);
  void drive_parallel(bool bounded, TimeNs t);

  /// Barrier completion step: runs single-threaded while every worker is
  /// blocked; commits mailboxes, publishes the next window, decides
  /// termination of the current drive.
  void epoch_completion() noexcept;
  struct OnEpoch {
    ShardedEngine* self;
    void operator()() const noexcept { self->epoch_completion(); }
  };

  /// Lazily spawns the persistent n-1 worker threads (first parallel drive).
  void ensure_pool();
  /// A parked worker's lifetime loop: wait for a drive handoff, run epochs
  /// for shard `s` until the drive completes, report idle, re-park.
  void worker_thread(unsigned s);
  /// One drive's epoch loop for shard `s` (run by workers and, for shard 0,
  /// by the driving thread itself).
  void epoch_loop(unsigned s);

  TimeNs lookahead_ = kTimeMax;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<Outbox> outbox_;        // S*S, indexed src * S + dst
  std::vector<Msg*> scratch_;         // per-destination commit ordering
  std::vector<GrowCounter> mailbox_grows_;  // per src shard
  std::uint64_t scratch_grows_ = 0;
  std::uint64_t epochs_ = 0;
  bool running_ = false;

  // Window published by begin_epoch for the workers (synchronized by the
  // epoch barrier; a one-shard run reads them directly).
  TimeNs epoch_h_ = 0;
  bool epoch_inclusive_ = false;

  // -- persistent worker pool (runs with more than one shard) --------------
  //
  // Callers chunk run_until() at fine granularity (chiba drives 5-sim-second
  // windows), so workers persist across drive() calls instead of being
  // respawned per chunk.  Handoff protocol: the driving thread publishes the
  // drive parameters, bumps drive_seq_ under pool_mutex_, and participates
  // as shard 0; parked workers wake on the bump, run the epoch loop, then
  // report idle.  The drive ends only after every worker is parked again, so
  // the next drive's state reset cannot race a worker still draining out.
  // All epoch-level synchronization is unchanged (same barrier, same
  // completion step) — which is why stdout/JSON stay byte-identical for
  // every shard count.
  std::vector<std::thread> pool_;
  std::unique_ptr<std::barrier<OnEpoch>> epoch_barrier_;
  std::mutex pool_mutex_;
  std::condition_variable pool_cv_;
  std::uint64_t drive_seq_ = 0;     // bumped per parallel drive
  std::size_t idle_workers_ = 0;    // workers parked between drives
  bool shutdown_ = false;           // set by the destructor
  // Per-drive state (published before the handoff, read by workers and the
  // completion step within the drive).
  bool drive_bounded_ = false;
  TimeNs drive_t_ = 0;
  bool drive_done_ = false;
  std::exception_ptr first_error_;
  std::mutex error_mutex_;
};

}  // namespace ktau::sim
