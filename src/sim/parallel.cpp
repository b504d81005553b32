#include "sim/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace ktau::sim {

void ShardedEngine::lookahead_violation(TimeNs src_now, TimeNs t) {
  throw std::logic_error(
      "ShardedEngine::cross_schedule violates the conservative lookahead: "
      "t=" + std::to_string(t) + " < src now=" + std::to_string(src_now) +
      " + lookahead");
}

ShardedEngine::ShardedEngine(unsigned shards, TimeNs lookahead) {
  lower_lookahead(lookahead);  // from kTimeMax
  const unsigned n = shards == 0 ? 1u : shards;
  engines_.reserve(n);
  for (unsigned s = 0; s < n; ++s) engines_.push_back(std::make_unique<Engine>());
  outbox_.resize(static_cast<std::size_t>(n) * n);
  mailbox_grows_.resize(n);
}

void ShardedEngine::lower_lookahead(TimeNs lookahead) {
  // A zero lookahead makes every window empty: a run would spin at the
  // barrier without executing anything.
  if (lookahead == 0) {
    throw std::invalid_argument("ShardedEngine: lookahead must be positive");
  }
  assert(!running_ && "ShardedEngine::lower_lookahead() called during a run");
  lookahead_ = std::min(lookahead_, lookahead);
}

TimeNs ShardedEngine::now() const {
  // Unsynchronized scan of every shard's clock — only valid between runs
  // (see header).  Calling this from inside a run would be a data race
  // with the worker threads.
  assert(!running_ && "ShardedEngine::now() called during a run");
  TimeNs t = 0;
  for (const auto& e : engines_) t = std::max(t, e->now());
  return t;
}

void ShardedEngine::reserve(std::size_t events_per_shard,
                            std::size_t mailbox_per_link) {
  for (auto& e : engines_) e->reserve(events_per_shard);
  for (auto& box : outbox_) box.reserve(mailbox_per_link);
  scratch_.reserve(mailbox_per_link * engines_.size());
}

std::uint64_t ShardedEngine::executed_total() const {
  std::uint64_t n = 0;
  for (const auto& e : engines_) n += e->executed();
  return n;
}

std::size_t ShardedEngine::pending_total() const {
  std::size_t n = 0;
  for (const auto& e : engines_) n += e->pending();
  return n;
}

std::uint64_t ShardedEngine::pool_grows_total() const {
  std::uint64_t n = 0;
  for (const auto& e : engines_) n += e->pool_grows();
  return n;
}

std::uint64_t ShardedEngine::mailbox_grows() const {
  std::uint64_t n = scratch_grows_;
  for (const auto& g : mailbox_grows_) n += g.count;
  return n;
}

void ShardedEngine::commit_mailboxes() {
  const std::size_t n = engines_.size();
  for (std::size_t dst = 0; dst < n; ++dst) {
    scratch_.clear();
    for (std::size_t src = 0; src < n; ++src) {
      for (Msg& m : outbox_[src * n + dst]) {
        if (scratch_.size() == scratch_.capacity()) ++scratch_grows_;
        scratch_.push_back(&m);
      }
    }
    if (scratch_.empty()) continue;
    // Canonical commit order: (time, src_key, per-source emit order).  Two
    // messages with equal time and src_key come from the same outbox, where
    // pointer order is emit order — so the key is total and shard-count-
    // independent, and the destination heap assigns the same sequence
    // numbers no matter how the cluster was partitioned.
    std::sort(scratch_.begin(), scratch_.end(), [](const Msg* a, const Msg* b) {
      if (a->time != b->time) return a->time < b->time;
      if (a->src_key != b->src_key) return a->src_key < b->src_key;
      return a < b;
    });
    Engine& e = *engines_[dst];
    for (Msg* m : scratch_) e.schedule_at(m->time, std::move(m->cb));
    for (std::size_t src = 0; src < n; ++src) outbox_[src * n + dst].clear();
  }
}

bool ShardedEngine::begin_epoch(bool bounded, TimeNs t) {
  commit_mailboxes();
  bool any = false;
  TimeNs m = kTimeMax;
  for (const auto& e : engines_) {
    if (e->pending() == 0) continue;
    any = true;
    m = std::min(m, e->next_time());
  }
  if (!any) return false;
  if (bounded && m > t) return false;
  TimeNs h = time_add_sat(m, lookahead_);
  if (bounded) h = std::min(h, time_add_sat(t, 1));
  epoch_h_ = h;
  // A saturated horizon would otherwise exclude events sitting exactly at
  // kTimeMax forever (time < kTimeMax never admits them): run the window
  // inclusively.  Cross-shard arrivals from such events also saturate to
  // kTimeMax and still commit at the barrier, after everything already
  // pending — identical in every shard count.  Engine::run_events_below
  // admits at-horizon events only if pending at window entry, so an event
  // at kTimeMax rescheduling itself at kTimeMax cannot pin a worker inside
  // the window — each window terminates and the chain advances one window
  // per epoch, reaching the barrier (and any pending error) every time.
  epoch_inclusive_ = (h == kTimeMax);
  ++epochs_;
  return true;
}

void ShardedEngine::run() { drive(false, 0); }

void ShardedEngine::run_until(TimeNs t) {
  drive(true, t);
  for (auto& e : engines_) e->advance_to(t);
}

void ShardedEngine::drive(bool bounded, TimeNs t) {
  running_ = true;
  if (engines_.size() == 1) {
    // One shard: same windows, same barrier-point commits, no threads —
    // the reference ordering every parallel run must reproduce.
    try {
      while (begin_epoch(bounded, t)) {
        engines_[0]->run_events_below(epoch_h_, epoch_inclusive_);
      }
    } catch (...) {
      running_ = false;
      throw;
    }
    running_ = false;
    return;
  }
  drive_parallel(bounded, t);
}

// One barrier arrival per epoch.  The completion step runs single-threaded
// while every participant is blocked: it commits the window's outboxes,
// publishes the next horizon, and decides termination.  std::barrier
// sequences the completion before any participant resumes, so workers read
// epoch_h_ / drive_done_ without further synchronization.
void ShardedEngine::epoch_completion() noexcept {
  try {
    bool error = false;
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      error = static_cast<bool>(first_error_);
    }
    drive_done_ = error || !begin_epoch(drive_bounded_, drive_t_);
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
    drive_done_ = true;
  }
}

void ShardedEngine::epoch_loop(unsigned s) {
  for (;;) {
    epoch_barrier_->arrive_and_wait();
    if (drive_done_) return;
    try {
      engines_[s]->run_events_below(epoch_h_, epoch_inclusive_);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
      // Keep arriving at the barrier so the other shards can drain out;
      // the next completion step sees the error and terminates the drive.
    }
  }
}

void ShardedEngine::worker_thread(unsigned s) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(pool_mutex_);
      pool_cv_.wait(lock, [&] { return shutdown_ || drive_seq_ != seen; });
      if (shutdown_) return;
      seen = drive_seq_;
      // pool_mutex_ publishes this drive's parameters (drive_bounded_,
      // drive_t_, drive_done_): the driving thread wrote them before
      // bumping drive_seq_ under the same lock.
    }
    epoch_loop(s);
    {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      ++idle_workers_;
    }
    pool_cv_.notify_all();
  }
}

void ShardedEngine::ensure_pool() {
  if (!pool_.empty()) return;
  const unsigned n = shards();
  epoch_barrier_ = std::make_unique<std::barrier<OnEpoch>>(
      static_cast<std::ptrdiff_t>(n), OnEpoch{this});
  pool_.reserve(n - 1);
  for (unsigned s = 1; s < n; ++s) {
    pool_.emplace_back(&ShardedEngine::worker_thread, this, s);
  }
}

void ShardedEngine::drive_parallel(bool bounded, TimeNs t) {
  ensure_pool();
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    drive_bounded_ = bounded;
    drive_t_ = t;
    drive_done_ = false;
    first_error_ = nullptr;
    idle_workers_ = 0;
    ++drive_seq_;  // the handoff: workers wake on the bump
  }
  pool_cv_.notify_all();
  // The driving thread is shard 0's worker for this drive.
  epoch_loop(0);
  // Wait for every worker to park again before returning: the next drive
  // resets drive_done_ and re-publishes parameters, which must not race a
  // worker still observing this drive's termination.
  {
    std::unique_lock<std::mutex> lock(pool_mutex_);
    pool_cv_.wait(lock, [&] { return idle_workers_ == pool_.size(); });
  }
  running_ = false;
  if (first_error_) {
    std::rethrow_exception(std::exchange(first_error_, nullptr));
  }
}

ShardedEngine::~ShardedEngine() {
  // drive_parallel returns only after every worker is parked, so at this
  // point the pool is idle in the cv wait (or was never spawned).
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    shutdown_ = true;
  }
  pool_cv_.notify_all();
  for (auto& th : pool_) th.join();
}

}  // namespace ktau::sim
