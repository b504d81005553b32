// Unit tests for the discrete-event engine: ordering, determinism,
// cancellation, horizon semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"

namespace ktau::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SameTimeEventsRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    e.schedule_at(42, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine e;
  TimeNs seen = 0;
  e.schedule_at(1'000'000, [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, 1'000'000u);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine e;
  TimeNs seen = 0;
  e.schedule_at(100, [&] {
    e.schedule_after(50, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 150u);
}

TEST(Engine, PastEventsClampToNow) {
  Engine e;
  TimeNs seen = 0;
  e.schedule_at(100, [&] {
    // Scheduling "in the past" is clamped, not an error.
    e.schedule_at(10, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule_at(10, [&] { ran = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.executed(), 0u);
}

TEST(Engine, CancelIsIdempotentAndToleratesNoEvent) {
  Engine e;
  const EventId id = e.schedule_at(10, [] {});
  e.cancel(id);
  e.cancel(id);        // double cancel: no-op
  e.cancel(kNoEvent);  // sentinel: no-op
  e.run();
  EXPECT_EQ(e.executed(), 0u);
}

TEST(Engine, CancelOneOfManyAtSameTime) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(5, [&] { order.push_back(0); });
  const EventId id = e.schedule_at(5, [&] { order.push_back(1); });
  e.schedule_at(5, [&] { order.push_back(2); });
  e.cancel(id);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(Engine, RunUntilStopsAtHorizonAndSetsNow) {
  Engine e;
  std::vector<TimeNs> fired;
  for (TimeNs t : {10u, 20u, 30u, 40u}) {
    e.schedule_at(t, [&fired, &e] { fired.push_back(e.now()); });
  }
  e.run_until(25);
  EXPECT_EQ(fired, (std::vector<TimeNs>{10, 20}));
  EXPECT_EQ(e.now(), 25u);
  EXPECT_EQ(e.pending(), 2u);
  e.run_until(100);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, RunUntilIncludesEventsAtHorizon) {
  Engine e;
  bool ran = false;
  e.schedule_at(25, [&] { ran = true; });
  e.run_until(25);
  EXPECT_TRUE(ran);
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  Engine e;
  int depth = 0;
  // A chain: each event schedules the next, five deep.
  std::function<void()> chain = [&] {
    if (++depth < 5) e.schedule_after(10, chain);
  };
  e.schedule_at(0, chain);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 40u);
}

TEST(Engine, PendingExcludesCancelled) {
  Engine e;
  const EventId a = e.schedule_at(1, [] {});
  e.schedule_at(2, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      e.schedule_at(static_cast<TimeNs>((i * 37) % 11), [&order, i] {
        order.push_back(i);
      });
    }
    e.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(10, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

// Regression: the seed engine recorded cancel-after-fire ids in its
// tombstone set forever, permanently skewing pending().  A fired event's
// handle must be a true no-op to cancel, and pending() must stay exact.
TEST(Engine, CancelAfterFireIsNoOpAndKeepsPendingExact) {
  Engine e;
  const EventId fired = e.schedule_at(10, [] {});
  e.run();
  EXPECT_EQ(e.pending(), 0u);
  e.cancel(fired);  // already ran: must not disturb anything
  EXPECT_EQ(e.pending(), 0u);
  e.schedule_at(20, [] {});
  e.schedule_at(30, [] {});
  EXPECT_EQ(e.pending(), 2u);  // seed engine reported 1 here
  e.run();
  EXPECT_EQ(e.executed(), 3u);
}

// A handle whose slot was reused by a later event must not cancel the new
// occupant (generation tag mismatch).
TEST(Engine, StaleHandleDoesNotCancelSlotReuse) {
  Engine e;
  const EventId old_id = e.schedule_at(10, [] {});
  e.run();  // fires; slot goes back on the free list
  bool ran = false;
  const EventId new_id = e.schedule_after(10, [&] { ran = true; });
  EXPECT_NE(old_id, new_id);
  e.cancel(old_id);  // stale generation: must not touch the new event
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_TRUE(ran);
}

// An event cancelling its own handle while running must be a no-op (the
// handle is already spent by the time the callback executes).
TEST(Engine, SelfCancelDuringCallbackIsNoOp) {
  Engine e;
  EventId self = kNoEvent;
  bool ran = false;
  self = e.schedule_at(10, [&] {
    ran = true;
    e.cancel(self);
  });
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.executed(), 1u);
  EXPECT_EQ(e.pending(), 0u);
}

// Cancelling from inside a callback an event that has not yet fired.
TEST(Engine, CallbackCancelsLaterEvent) {
  Engine e;
  bool victim_ran = false;
  const EventId victim = e.schedule_at(20, [&] { victim_ran = true; });
  e.schedule_at(10, [&] { e.cancel(victim); });
  e.run();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(e.executed(), 1u);
}

// The order reference for StressMatchesReferenceModel: a std::multimap on
// time.  emplace() puts an event after its equal-time peers, so the map is
// ordered on (time, schedule order) — the engine's FIFO contract — with no
// heap, slot pool or generation tag of its own.
class RefEngine {
 public:
  TimeNs now() const { return now_; }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t executed() const { return executed_; }
  std::uint64_t schedule_after(TimeNs dt, std::function<void()> cb) {
    const std::uint64_t id = ++last_id_;
    live_[id] = queue_.emplace(now_ + dt, Event{id, std::move(cb)});
    return id;
  }
  void cancel(std::uint64_t id) {
    const auto it = live_.find(id);
    if (it == live_.end()) return;  // fired, cancelled, or never issued
    queue_.erase(it->second);
    live_.erase(it);
  }
  bool step() {
    if (queue_.empty()) return false;
    auto node = queue_.extract(queue_.begin());
    now_ = node.key();
    live_.erase(node.mapped().id);
    ++executed_;
    node.mapped().cb();
    return true;
  }

 private:
  struct Event {
    std::uint64_t id;
    std::function<void()> cb;
  };
  std::multimap<TimeNs, Event> queue_;
  std::unordered_map<std::uint64_t, std::multimap<TimeNs, Event>::iterator>
      live_;
  TimeNs now_ = 0;
  std::uint64_t last_id_ = 0;
  std::uint64_t executed_ = 0;
};

// One engine and the random program's bookkeeping for it.  Tags number
// events in schedule order, callbacks' schedules included; each callback
// logs its tag when it runs.
template <class E>
struct World {
  E e;
  std::vector<int> log;                // tags in execution order
  std::vector<std::uint64_t> handles;  // indexed by tag

  int one_shot(TimeNs dt) {
    const int tag = static_cast<int>(handles.size());
    handles.push_back(
        e.schedule_after(dt, [this, tag] { log.push_back(tag); }));
    return tag;
  }
  // Fires `left` + 1 times, rescheduling itself from inside its callback.
  void timer(TimeNs period, int left) {
    const int tag = static_cast<int>(handles.size());
    handles.push_back(e.schedule_after(period, [this, tag, period, left] {
      log.push_back(tag);
      if (left > 0) timer(period, left - 1);
    }));
  }
  // A work event that cancels its (strictly later) guard when it runs.
  void pair(TimeNs dt, TimeNs gap) {
    const int guard = one_shot(dt + gap);
    const int tag = static_cast<int>(handles.size());
    handles.push_back(e.schedule_after(dt, [this, tag, guard] {
      log.push_back(tag);
      e.cancel(handles[static_cast<std::size_t>(guard)]);
    }));
  }
};

// Drives Engine and RefEngine in lockstep with one fixed-seed program:
// one-shots, steps, cancels of random handles (pending, fired or already
// cancelled), self-rescheduling timers and work/guard pairs.  Below
// `in_flight` pending events each round draws an op; at it, the round
// steps.  After the `rounds`, both drain.  Execution order, now(),
// pending() and executed() must match after every round.
void stress_against_reference(int rounds, std::size_t in_flight,
                              std::size_t& peak) {
  World<Engine> fast;
  World<RefEngine> ref;
  const auto both = [&](auto&& f) {
    f(fast);
    f(ref);
  };
  std::mt19937 rng(1234);
  std::size_t seen = 0;  // prefix of the logs already compared
  peak = 0;
  for (int round = 0; round < rounds || ref.e.pending() > 0; ++round) {
    const auto op =
        round < rounds && ref.e.pending() < in_flight ? rng() % 8 : 7;
    if (op < 3) {
      const TimeNs dt = rng() % 500;
      both([&](auto& w) { w.one_shot(dt); });
    } else if (op == 3) {
      const TimeNs period = 1 + rng() % 500;
      const int left = static_cast<int>(rng() % 4);
      both([&](auto& w) { w.timer(period, left); });
    } else if (op == 4) {
      const TimeNs dt = rng() % 500;
      const TimeNs gap = 1 + rng() % 500;
      both([&](auto& w) { w.pair(dt, gap); });
    } else if (op == 5 && !ref.handles.empty()) {
      const std::size_t pick = rng() % ref.handles.size();
      both([&](auto& w) { w.e.cancel(w.handles[pick]); });
    } else {
      both([](auto& w) { w.e.step(); });
    }
    ASSERT_EQ(fast.e.pending(), ref.e.pending()) << "round " << round;
    ASSERT_EQ(fast.e.executed(), ref.e.executed()) << "round " << round;
    ASSERT_EQ(fast.e.now(), ref.e.now()) << "round " << round;
    ASSERT_EQ(fast.log.size(), ref.log.size()) << "round " << round;
    for (; seen < ref.log.size(); ++seen) {
      ASSERT_EQ(fast.log[seen], ref.log[seen]) << "execution #" << seen;
    }
    peak = std::max(peak, ref.e.pending());
  }
  EXPECT_EQ(fast.e.pending(), 0u);
  EXPECT_FALSE(fast.e.step());
}

TEST(Engine, StressMatchesReferenceModel) {
  std::size_t peak = 0;
  stress_against_reference(5'000, 8192, peak);
  if (HasFatalFailure()) return;
  // Long enough to hold about 8k events in flight for most of the run.
  stress_against_reference(60'000, 8192, peak);
  EXPECT_GE(peak, 8000u);
}

// Oversized captures (> InlineCallback::kInlineSize) must still work via the
// heap fallback, including cancellation releasing the capture.
TEST(Engine, OversizedCaptureFallsBackToHeapAndRuns) {
  Engine e;
  std::array<std::uint64_t, 16> big{};  // 128 bytes: over the inline limit
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i + 1;
  std::uint64_t sum = 0;
  e.schedule_at(10, [big, &sum] {
    for (const auto v : big) sum += v;
  });
  static_assert(!InlineCallback::fits_inline<
                std::array<std::uint64_t, 17>>);  // sanity on the limit
  const EventId doomed = e.schedule_at(20, [big] { (void)big; });
  e.cancel(doomed);  // must free the heap capture, not leak it
  e.run();
  EXPECT_EQ(sum, 136u);
}

}  // namespace
}  // namespace ktau::sim
