// Unit tests for the analysis views on hand-built snapshots (no simulator
// involved): aggregation arithmetic, group folding, bridge queries, merged
// rows, and renderer formatting edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/render.hpp"
#include "analysis/views.hpp"

namespace ktau::analysis {
namespace {

constexpr sim::FreqHz kFreq = 450'000'000;  // 450 MHz: 450 cycles == 1 us

meas::ProfileSnapshot make_snapshot() {
  meas::ProfileSnapshot snap;
  snap.timestamp = 1'000'000;
  snap.cpu_freq = kFreq;
  snap.events = {
      {0, meas::Group::Sched, "schedule"},
      {1, meas::Group::Syscall, "sys_read"},
      {2, meas::Group::Net, "tcp_v4_rcv"},
      {3, meas::Group::User, "MPI_Recv"},
  };

  meas::TaskProfileData a;
  a.pid = 100;
  a.name = "rank0";
  a.events = {
      {0, 10, 450'000'000, 450'000'000},  // 1.0 s sched
      {1, 20, 90'000'000, 45'000'000},    // 0.2 s incl, 0.1 s excl syscall
      {2, 30, 45'000'000, 45'000'000},    // 0.1 s net
  };
  a.bridge = {
      {3, 0, 5, 225'000'000, 225'000'000},  // schedule inside MPI_Recv
      {3, 1, 7, 45'000'000, 22'500'000},    // sys_read inside MPI_Recv
  };

  meas::TaskProfileData b;
  b.pid = 101;
  b.name = "rank1";
  b.events = {
      {0, 1, 45'000'000, 45'000'000},  // 0.1 s sched
      {2, 2, 9'000'000, 9'000'000},    // 0.02 s net
  };

  snap.tasks = {a, b};
  return snap;
}

TEST(Views, AggregateSumsAcrossTasksAndSorts) {
  const auto snap = make_snapshot();
  const auto rows = aggregate_events(snap);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "schedule");  // largest inclusive
  EXPECT_EQ(rows[0].count, 11u);
  EXPECT_NEAR(rows[0].incl_sec, 1.1, 1e-9);
  EXPECT_NEAR(rows[0].excl_sec, 1.1, 1e-9);
  // tcp_v4_rcv: 0.1 + 0.02
  bool found = false;
  for (const auto& row : rows) {
    if (row.name == "tcp_v4_rcv") {
      found = true;
      EXPECT_EQ(row.count, 32u);
      EXPECT_NEAR(row.excl_sec, 0.12, 1e-9);
      EXPECT_EQ(meas::mask_of(row.group), meas::mask_of(meas::Group::Net));
    }
  }
  EXPECT_TRUE(found);
}

TEST(Views, AggregateResolvesUnknownIdsLikeTheSnapshot) {
  // Rows whose id is missing from the event table take the snapshot's
  // lookup defaults (empty name, Group::Sched), and, sharing that name,
  // fold into one row.
  auto snap = make_snapshot();
  snap.tasks[0].events.push_back({40, 1, 450'000, 450'000});
  snap.tasks[1].events.push_back({41, 2, 900'000, 900'000});
  const auto rows = aggregate_events(snap);
  ASSERT_EQ(rows.size(), 4u);
  const auto unknown =
      std::find_if(rows.begin(), rows.end(),
                   [](const EventRow& r) { return r.name.empty(); });
  ASSERT_NE(unknown, rows.end());
  EXPECT_EQ(meas::mask_of(unknown->group), meas::mask_of(meas::Group::Sched));
  EXPECT_EQ(unknown->count, 3u);
  EXPECT_NEAR(unknown->incl_sec, 0.003, 1e-12);
}

TEST(Views, GroupBreakdownFoldsByGroup) {
  const auto snap = make_snapshot();
  const auto groups = group_breakdown(snap, snap.tasks[0]);
  EXPECT_NEAR(groups.at(meas::Group::Sched), 1.0, 1e-9);
  EXPECT_NEAR(groups.at(meas::Group::Syscall), 0.1, 1e-9);
  EXPECT_NEAR(groups.at(meas::Group::Net), 0.1, 1e-9);
  EXPECT_EQ(groups.count(meas::Group::Irq), 0u);
}

TEST(Views, KernelWithinUserFiltersAndSorts) {
  const auto snap = make_snapshot();
  const auto rows = kernel_within_user(snap, snap.tasks[0], 3);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "schedule");
  EXPECT_EQ(rows[0].count, 5u);
  EXPECT_NEAR(rows[0].excl_sec, 0.5, 1e-9);
  EXPECT_EQ(rows[1].name, "sys_read");
  // Unknown user event: empty.
  EXPECT_TRUE(kernel_within_user(snap, snap.tasks[0], 99).empty());
}

TEST(Views, GroupsWithinUserFolds) {
  const auto snap = make_snapshot();
  const auto groups = groups_within_user(snap, snap.tasks[0], 3);
  EXPECT_NEAR(groups.at(meas::Group::Sched), 0.5, 1e-9);
  EXPECT_NEAR(groups.at(meas::Group::Syscall), 0.05, 1e-9);
}

TEST(Views, TaskOfThrowsForUnknownPid) {
  const auto snap = make_snapshot();
  EXPECT_EQ(task_of(snap, 101).name, "rank1");
  EXPECT_THROW(task_of(snap, 999), std::out_of_range);
}

TEST(Views, NamedMetricsByName) {
  const auto snap = make_snapshot();
  const auto m = named_metrics(snap, snap.tasks[0], "sys_read");
  EXPECT_EQ(m.count, 20u);
  EXPECT_NEAR(m.incl_sec, 0.2, 1e-9);
  EXPECT_NEAR(m.excl_sec, 0.1, 1e-9);
  EXPECT_EQ(named_metrics(snap, snap.tasks[0], "nope").count, 0u);
}

TEST(Views, EventNameAndGroupLookupDefaults) {
  const auto snap = make_snapshot();
  EXPECT_EQ(snap.event_name(2), "tcp_v4_rcv");
  EXPECT_TRUE(snap.event_name(42).empty());
  EXPECT_EQ(meas::mask_of(snap.event_group(42)),
            meas::mask_of(meas::Group::Sched));
}

TEST(Render, BarsHandleEmptyAndZeroRows) {
  std::ostringstream os;
  render_bars(os, "empty", {});
  render_bars(os, "zeros", {{"a", 0.0}, {"b", 0.0}});
  EXPECT_NE(os.str().find("empty"), std::string::npos);
  EXPECT_NE(os.str().find("zeros"), std::string::npos);
}

TEST(Render, CdfHandlesEmptySeries) {
  std::map<std::string, sim::Cdf> series;
  series["empty"] = sim::Cdf();
  std::ostringstream os;
  render_cdfs(os, "t", "x", series);
  EXPECT_NE(os.str().find("(empty)"), std::string::npos);
}

TEST(Render, CdfHandlesDegenerateSingleValue) {
  std::map<std::string, sim::Cdf> series;
  series["flat"] = sim::Cdf({5.0, 5.0, 5.0});
  std::ostringstream os;
  render_cdfs(os, "t", "x", series);  // lo == hi: no curve, no crash
  EXPECT_NE(os.str().find("flat"), std::string::npos);
}

TEST(Render, TimelineTruncatesLongStreams) {
  std::vector<TimelineEvent> events;
  for (int i = 0; i < 50; ++i) {
    events.push_back({static_cast<sim::TimeNs>(i), "ev", true, i % 2 == 0});
  }
  std::ostringstream os;
  render_timeline(os, "t", events, 10);
  EXPECT_NE(os.str().find("more events"), std::string::npos);
}

TEST(Render, PairedBarsShowBothValues) {
  std::ostringstream os;
  render_paired_bars(os, "pairs", {{"row", 2.0, 1.0}}, "A-label", "B-label");
  const auto text = os.str();
  EXPECT_NE(text.find("A-label"), std::string::npos);
  EXPECT_NE(text.find("2.000"), std::string::npos);
  EXPECT_NE(text.find("1.000"), std::string::npos);
}

}  // namespace
}  // namespace ktau::analysis
