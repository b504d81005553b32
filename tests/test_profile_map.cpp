// FlatKeyMap unit tests and TaskProfile edge cases for the probe-hot-path
// flat maps (bridge matrix + call-path edges) and the tag-chained request
// rows: growth across rehashes, collision chains, deep nesting, merges of
// disjoint and overlapping key sets, frames that outlive their request,
// and callpath-on/off parity of the flat profile.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "ktau/metrics_map.hpp"
#include "ktau/profile.hpp"

namespace ktau::meas {
namespace {

TEST(FlatKeyMap, StartsEmpty) {
  FlatKeyMap<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.begin(), m.end());
  EXPECT_EQ(m.find(42), m.end());
  EXPECT_THROW(m.at(42), std::out_of_range);
}

TEST(FlatKeyMap, InsertFindUpdate) {
  FlatKeyMap<int> m;
  m[7] = 70;
  m[9] = 90;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at(7), 70);
  EXPECT_EQ(m.at(9), 90);
  m[7] += 5;  // update through operator[] (cache hit path)
  EXPECT_EQ(m.at(7), 75);
  EXPECT_EQ(m.find(8), m.end());
  const auto it = m.find(9);
  ASSERT_NE(it, m.end());
  EXPECT_EQ(it->first, 9u);
  EXPECT_EQ(it->second, 90);
}

TEST(FlatKeyMap, SurvivesGrowthAcrossManyRehashes) {
  FlatKeyMap<std::uint64_t> m;
  constexpr std::uint64_t kN = 10'000;
  for (std::uint64_t k = 0; k < kN; ++k) m[k * 2654435761u] = k;
  EXPECT_EQ(m.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_EQ(m.at(k * 2654435761u), k) << "key " << k;
  }
  // Iteration visits every live entry exactly once.
  std::set<std::uint64_t> seen;
  for (const auto& [key, v] : m) {
    EXPECT_TRUE(seen.insert(key).second) << "duplicate key in iteration";
    EXPECT_EQ(key, v * 2654435761u);
  }
  EXPECT_EQ(seen.size(), kN);
}

TEST(FlatKeyMap, CollidingKeysProbeCorrectly) {
  // Sequential keys stress the linear-probe path once the table is dense.
  FlatKeyMap<int> m;
  for (int k = 0; k < 1000; ++k) m[static_cast<std::uint64_t>(k)] = k;
  for (int k = 999; k >= 0; --k) {
    ASSERT_EQ(m.at(static_cast<std::uint64_t>(k)), k);
  }
}

TEST(FlatKeyMap, ClearResets) {
  FlatKeyMap<int> m;
  m[1] = 1;
  m[2] = 2;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), m.end());
  m[3] = 3;  // usable after clear
  EXPECT_EQ(m.at(3), 3);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatKeyMap, LastKeyCacheSurvivesInterleavedInserts) {
  // Hammer one key between inserts of fresh keys; the one-entry cache must
  // never return a stale slot after a rehash invalidates positions.
  FlatKeyMap<std::uint64_t> m;
  const std::uint64_t hot = bridge_key(3, 11);
  for (std::uint64_t k = 0; k < 500; ++k) {
    m[hot] += 1;
    m[bridge_key(100 + static_cast<EventId>(k), 7)] = k;
    m[hot] += 1;
  }
  EXPECT_EQ(m.at(hot), 1000u);
  EXPECT_EQ(m.size(), 501u);
}

// --- TaskProfile on top of the flat maps ----------------------------------

TEST(ProfileMap, DeepNestingAttributesInclusiveExclusive) {
  TaskProfile p;
  p.enable_callpath(true);
  // 64-deep nest: event i at depth i, each layer 10 cycles of its own time.
  constexpr EventId kDepth = 64;
  sim::Cycles t = 0;
  for (EventId ev = 0; ev < kDepth; ++ev) p.entry(ev, t += 10);
  for (EventId ev = kDepth; ev-- > 0;) p.exit(ev, t += 10);
  EXPECT_EQ(p.stack_depth(), 0u);
  // Innermost event: incl == excl == its own span.
  EXPECT_EQ(p.metrics(kDepth - 1).incl, p.metrics(kDepth - 1).excl);
  // Outermost event: incl spans everything, excl only its own 20 cycles.
  EXPECT_EQ(p.metrics(0).incl, static_cast<sim::Cycles>(2 * 10 * kDepth - 10));
  EXPECT_EQ(p.metrics(0).excl, 20u);
  // One call-path edge per parent->child pair, plus the root edge.
  EXPECT_EQ(p.edges().size(), static_cast<std::size_t>(kDepth));
  EXPECT_EQ(p.edges().at(bridge_key(kCallpathRoot, 0)).count, 1u);
  EXPECT_EQ(p.edges().at(bridge_key(5, 6)).count, 1u);
}

TEST(ProfileMap, MergeOfDisjointKeySets) {
  TaskProfile a;
  a.enable_callpath(true);
  a.set_user_context(100);
  a.set_request_tag(5);
  a.entry(1, 0);
  a.exit(1, 10);

  TaskProfile b;
  b.enable_callpath(true);
  b.set_user_context(200);
  b.set_request_tag(6);
  b.entry(2, 0);
  b.exit(2, 30);

  a.merge(b);
  // Flat rows for both events.
  EXPECT_EQ(a.metrics(1).count, 1u);
  EXPECT_EQ(a.metrics(2).count, 1u);
  // Disjoint bridge rows both present, untouched by each other.
  EXPECT_EQ(a.bridge().at(bridge_key(100, 1)).incl, 10u);
  EXPECT_EQ(a.bridge().at(bridge_key(200, 2)).incl, 30u);
  EXPECT_EQ(a.bridge().size(), 2u);
  // Disjoint call-path edges both present.
  EXPECT_EQ(a.edges().at(bridge_key(kCallpathRoot, 1)).count, 1u);
  EXPECT_EQ(a.edges().at(bridge_key(kCallpathRoot, 2)).count, 1u);
  // Disjoint request rows: a's own row, then b's appended after it.
  ASSERT_EQ(a.requests().size(), 2u);
  EXPECT_EQ(a.requests()[0].first, bridge_key(5, 1));
  EXPECT_EQ(a.requests()[0].second.count, 1u);
  EXPECT_EQ(a.requests()[0].second.incl, 10u);
  EXPECT_EQ(a.requests()[0].second.excl, 10u);
  EXPECT_EQ(a.requests()[1].first, bridge_key(6, 2));
  EXPECT_EQ(a.requests()[1].second.count, 1u);
  EXPECT_EQ(a.requests()[1].second.incl, 30u);
  EXPECT_EQ(a.requests()[1].second.excl, 30u);
  // The merged row joined tag 6's chain: a later exit finds it.
  a.set_request_tag(6);
  a.entry(2, 40);
  a.exit(2, 45);
  ASSERT_EQ(a.requests().size(), 2u);
  EXPECT_EQ(a.requests()[1].second.count, 2u);
  EXPECT_EQ(a.requests()[1].second.incl, 35u);
}

TEST(ProfileMap, MergeOfOverlappingKeysAccumulates) {
  const std::uint64_t epoch_a = 4;
  const std::uint64_t epoch_b = 2;
  TaskProfile a;
  a.bind_epoch(&epoch_a);
  a.set_user_context(100);
  a.set_request_tag(5);
  a.entry(1, 0);
  a.exit(1, 10);

  TaskProfile b;
  b.bind_epoch(&epoch_b);
  b.set_user_context(100);
  b.set_request_tag(5);
  b.entry(1, 0);
  b.exit(1, 25);

  a.merge(b);
  EXPECT_EQ(a.metrics(1).count, 2u);
  EXPECT_EQ(a.metrics(1).incl, 35u);
  const EventMetrics& row = a.bridge().at(bridge_key(100, 1));
  EXPECT_EQ(row.count, 2u);
  EXPECT_EQ(row.incl, 35u);
  EXPECT_EQ(a.bridge().size(), 1u);
  // One request row: counts and cycles summed, epoch the newer of the two
  // (not the last writer's).
  ASSERT_EQ(a.requests().size(), 1u);
  const auto& [key, req] = a.requests()[0];
  EXPECT_EQ(key, bridge_key(5, 1));
  EXPECT_EQ(req.count, 2u);
  EXPECT_EQ(req.incl, 35u);
  EXPECT_EQ(req.excl, 35u);
  EXPECT_EQ(req.epoch, 4u);
}

TEST(ProfileMap, StragglerFrameCreditsTheTagItEnteredUnder) {
  // A frame entered under request 5 is still open while request 6's
  // frames open and close inside it.  It closes into the existing (5, 1)
  // row, and request 6's later exits find their rows through tag 6's
  // chain, past the interleaved tag-5 row.
  TaskProfile p;
  p.set_request_tag(5);
  p.entry(1, 0);
  p.exit(1, 5);   // row 0: (5, 1)
  p.entry(1, 5);  // the straggler
  p.set_request_tag(6);
  p.entry(2, 10);
  p.exit(2, 20);  // row 1: (6, 2)
  p.entry(1, 20);
  p.exit(1, 30);  // row 2: (6, 1)
  p.exit(1, 40);  // the straggler: 35 cycles, 15 of them its own
  EXPECT_EQ(p.last_closed_tag(), 5u);
  p.entry(1, 40);
  p.exit(1, 45);  // second (6, 1) exit: the head of tag 6's chain
  p.entry(2, 45);
  p.exit(2, 50);  // second (6, 2) exit: one link down the chain

  const RequestRows& rows = p.requests();
  ASSERT_EQ(rows.size(), 3u);  // one row per key, in first-touch order
  EXPECT_EQ(rows[0].first, bridge_key(5, 1));
  EXPECT_EQ(rows[0].second.count, 2u);
  EXPECT_EQ(rows[0].second.incl, 40u);
  EXPECT_EQ(rows[0].second.excl, 20u);
  EXPECT_EQ(rows[1].first, bridge_key(6, 2));
  EXPECT_EQ(rows[1].second.count, 2u);
  EXPECT_EQ(rows[1].second.incl, 15u);
  EXPECT_EQ(rows[1].second.excl, 15u);
  EXPECT_EQ(rows[2].first, bridge_key(6, 1));
  EXPECT_EQ(rows[2].second.count, 2u);
  EXPECT_EQ(rows[2].second.incl, 15u);
  EXPECT_EQ(rows[2].second.excl, 15u);
}

TEST(ProfileMap, CallpathOnOffFlatProfileParity) {
  // The flat profile must be byte-for-byte the same whether or not
  // call-path accounting runs alongside it.
  auto drive = [](TaskProfile& p) {
    sim::Cycles t = 0;
    for (int rep = 0; rep < 50; ++rep) {
      p.entry(3, t += 5);
      p.entry(7, t += 5);
      p.exit(7, t += 5);
      p.entry(9, t += 5);
      p.exit(9, t += 5);
      p.exit(3, t += 5);
    }
  };
  TaskProfile off;
  TaskProfile on;
  on.enable_callpath(true);
  drive(off);
  drive(on);
  ASSERT_EQ(off.all_metrics().size(), on.all_metrics().size());
  for (std::size_t ev = 0; ev < off.all_metrics().size(); ++ev) {
    EXPECT_EQ(off.all_metrics()[ev].count, on.all_metrics()[ev].count);
    EXPECT_EQ(off.all_metrics()[ev].incl, on.all_metrics()[ev].incl);
    EXPECT_EQ(off.all_metrics()[ev].excl, on.all_metrics()[ev].excl);
  }
  EXPECT_TRUE(off.edges().empty());
  EXPECT_EQ(on.edges().size(), 3u);  // root->3, 3->7, 3->9
  EXPECT_EQ(on.edges().at(bridge_key(3, 7)).count, 50u);
}

TEST(ProfileMap, BridgeRowsOnlyAccumulateUnderUserContext) {
  TaskProfile p;
  p.entry(1, 0);
  p.exit(1, 5);  // no user context: no bridge row
  EXPECT_TRUE(p.bridge().empty());
  p.set_user_context(42);
  p.entry(1, 10);
  p.exit(1, 25);
  EXPECT_EQ(p.bridge().size(), 1u);
  EXPECT_EQ(p.bridge().at(bridge_key(42, 1)).incl, 15u);
  p.set_user_context(kNoEventId);
  p.entry(1, 30);
  p.exit(1, 40);
  EXPECT_EQ(p.bridge().size(), 1u);  // unchanged while context is off
  EXPECT_EQ(p.metrics(1).count, 3u);
}

}  // namespace
}  // namespace ktau::meas
