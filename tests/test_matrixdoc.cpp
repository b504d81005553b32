// Tests for the ktau-matrix-v1 document tool layer (analysis/matrixdoc.*,
// DESIGN.md §15):
//
//   - encode/decode share one schema: parse(write(doc)) is the identity,
//     byte for byte, including shortest-round-trip doubles and NaN → null
//     → NaN;
//   - merge of a real harness `--shard i/N` run (2/4/8-way, empty shards
//     included) is byte-identical to the unsharded document;
//   - overlapping / missing shard units and stamp inconsistencies are
//     rejected with typed MatrixDocError kinds;
//   - the reader survives truncation and byte-flip fuzzing (typed errors,
//     no crashes, no over-allocation — the snapshot-codec posture);
//   - validate statistics (nearest-rank 95% interval) and budget parsing /
//     assertion edges;
//   - diff threshold edges (at, above, below), gate flips, structural
//     changes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/matrixdoc.hpp"
#include "analysis/report.hpp"
#include "experiments/harness.hpp"
#include "sim/rng.hpp"

namespace ktau::analysis {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

MatrixDoc sample_doc() {
  MatrixDoc doc;
  doc.trials_per_scenario = 2;
  doc.failures = 1;
  ScenarioEntry sc;
  sc.name = "alpha";
  sc.title = "Alpha: \"quoted\" title\twith escapes";
  sc.scale = 0.1;
  RepeatEntry r0;
  r0.repeat = 0;
  r0.salt = 0;
  TrialEntry t0;
  t0.name = "t/one two";
  t0.metrics = {{"exec_sec", 32.899718776},
                {"third", 1.0 / 3.0},
                {"tiny", 5e-324},
                {"huge", 1.7976931348623157e308},
                {"nan_metric", kNaN},
                {"neg", -0.25}};
  r0.trials.push_back(t0);
  TrialEntry t1;
  t1.name = "t/err";
  t1.failed = true;
  t1.error = "boom\nline2";
  r0.trials.push_back(t1);
  r0.gates = {{"shape holds", true}, {"budget", false}};
  sc.repeats.push_back(r0);
  RepeatEntry r1;
  r1.repeat = 1;
  r1.salt = 0xDEADBEEFCAFEBABEull;
  r1.trials.push_back(t0);
  sc.repeats.push_back(r1);
  doc.scenarios.push_back(sc);
  ScenarioEntry sc2;
  sc2.name = "beta";
  sc2.title = "Beta";
  sc2.scale = 1.0;
  sc2.repeats.push_back(RepeatEntry{});  // no trials, no gates
  doc.scenarios.push_back(sc2);
  return doc;
}

// ---------------------------------------------------------------------------
// Round-trip
// ---------------------------------------------------------------------------

TEST(MatrixDocRoundTrip, WriteParseWriteIsIdentity) {
  const std::string a = matrix_doc_to_string(sample_doc());
  const MatrixDoc parsed = parse_matrix_doc(a);
  const std::string b = matrix_doc_to_string(parsed);
  EXPECT_EQ(a, b);
}

TEST(MatrixDocRoundTrip, ValuesSurviveExactly) {
  const MatrixDoc doc = parse_matrix_doc(matrix_doc_to_string(sample_doc()));
  ASSERT_EQ(doc.scenarios.size(), 2u);
  const TrialEntry& t = doc.scenarios[0].repeats[0].trials[0];
  ASSERT_EQ(t.metrics.size(), 6u);
  EXPECT_EQ(t.metrics[0].second, 32.899718776);
  EXPECT_EQ(t.metrics[1].second, 1.0 / 3.0) << "17-digit doubles exact";
  EXPECT_EQ(t.metrics[2].second, 5e-324) << "denormal min";
  EXPECT_EQ(t.metrics[3].second, 1.7976931348623157e308);
  EXPECT_TRUE(std::isnan(t.metrics[4].second)) << "NaN -> null -> NaN";
  EXPECT_EQ(t.metrics[5].second, -0.25);
  EXPECT_EQ(doc.scenarios[0].repeats[1].salt, 0xDEADBEEFCAFEBABEull);
  EXPECT_TRUE(doc.scenarios[0].repeats[0].trials[1].failed);
  EXPECT_EQ(doc.scenarios[0].repeats[0].trials[1].error, "boom\nline2");
  EXPECT_FALSE(doc.shard.has_value());
}

TEST(MatrixDocRoundTrip, ShortestRoundTripDoubleFormatting) {
  auto fmt = [](double v) {
    std::ostringstream os;
    write_json_double(os, v);
    return os.str();
  };
  EXPECT_EQ(fmt(0.1), "0.1") << "the satellite fix: no 0.10000000000000001";
  EXPECT_EQ(fmt(0.05), "0.05");
  EXPECT_EQ(fmt(1.0), "1");
  // A value needing all 17 digits still round-trips exactly.
  const double third = 1.0 / 3.0;
  EXPECT_EQ(std::strtod(fmt(third).c_str(), nullptr), third);
  EXPECT_EQ(std::strtod(fmt(5e-324).c_str(), nullptr), 5e-324);
}

TEST(MatrixDocRoundTrip, FileWriterReportsWriteFailures) {
  const MatrixDoc doc = sample_doc();
  const auto path = std::filesystem::temp_directory_path() /
                    ("ktau_matrixdoc_file_" + std::to_string(::getpid()) +
                     ".json");
  ASSERT_TRUE(write_matrix_doc_file(path.string(), doc));
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  std::filesystem::remove(path);
  EXPECT_EQ(ss.str(), matrix_doc_to_string(doc));

  EXPECT_FALSE(write_matrix_doc_file(
      (std::filesystem::temp_directory_path() / "no_such_dir" / "x.json")
          .string(),
      doc));
  if (std::filesystem::exists("/dev/full")) {
    // Opens fine; the flush fails with ENOSPC (`matrixctl merge -o`).
    EXPECT_FALSE(write_matrix_doc_file("/dev/full", doc));
  }
}

TEST(MatrixDocRoundTrip, ShardStampRoundTrips) {
  MatrixDoc doc = sample_doc();
  doc.shard = ShardStamp{2, 4, 17};
  const MatrixDoc back = parse_matrix_doc(matrix_doc_to_string(doc));
  ASSERT_TRUE(back.shard.has_value());
  EXPECT_EQ(back.shard->index, 2);
  EXPECT_EQ(back.shard->count, 4);
  EXPECT_EQ(back.shard->units_total, 17u);
  EXPECT_EQ(matrix_doc_to_string(doc), matrix_doc_to_string(back));
}

// ---------------------------------------------------------------------------
// Reader rejection: truncation / byte-flip fuzz
// ---------------------------------------------------------------------------

TEST(MatrixDocFuzz, EveryTruncationIsATypedError) {
  MatrixDoc doc = sample_doc();
  doc.shard = ShardStamp{0, 2, 4};
  const std::string full = matrix_doc_to_string(doc);
  // Every proper prefix except the one that only drops the trailing
  // newline (whitespace) must be rejected.
  for (std::size_t len = 0; len + 1 < full.size(); ++len) {
    EXPECT_THROW(parse_matrix_doc(std::string_view(full).substr(0, len)),
                 MatrixDocError)
        << "prefix length " << len;
  }
  EXPECT_NO_THROW(parse_matrix_doc(full));
}

TEST(MatrixDocFuzz, ByteFlipsNeverCrashAndOftenReject) {
  const std::string full = matrix_doc_to_string(sample_doc());
  sim::Rng rng(0xF00D);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string corrupted = full;
    const std::size_t pos = rng.next_u64() % corrupted.size();
    const char flip = static_cast<char>(1u << (rng.next_u64() % 8));
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ flip);
    try {
      const MatrixDoc doc = parse_matrix_doc(corrupted);
      // A flip inside string content or a digit can legally parse; the
      // result must still re-serialize deterministically.
      EXPECT_EQ(matrix_doc_to_string(doc),
                matrix_doc_to_string(parse_matrix_doc(corrupted)));
    } catch (const MatrixDocError&) {
      // Typed rejection is the expected common case.
    }
  }
}

TEST(MatrixDocFuzz, RejectsForeignSchemaAndTrailingBytes) {
  EXPECT_THROW(parse_matrix_doc("{}"), MatrixDocError);
  EXPECT_THROW(parse_matrix_doc("[]"), MatrixDocError);
  EXPECT_THROW(parse_matrix_doc(
                   "{\n  \"schema\": \"ktau-matrix-v2\",\n  "
                   "\"trials_per_scenario\": 1,\n  \"scenarios\": [],\n  "
                   "\"failures\": 0\n}\n"),
               MatrixDocError);
  const std::string good = matrix_doc_to_string(sample_doc());
  EXPECT_THROW(parse_matrix_doc(good + "x"), MatrixDocError);
}

// ---------------------------------------------------------------------------
// Merge against the real harness (fixture scenarios through run_matrix)
// ---------------------------------------------------------------------------

expt::ScenarioSpec fixture_scenario(const std::string& name, int order,
                                    int n_trials) {
  expt::ScenarioSpec s;
  s.name = name;
  s.title = "matrixdoc fixture " + name;
  s.order = order;
  s.trials = [n_trials](const expt::ScenarioParams& p) {
    std::vector<expt::TrialSpec> trials;
    for (int i = 0; i < n_trials; ++i) {
      trials.push_back(
          {std::string("t").append(std::to_string(i)),
           [seed = p.seed(static_cast<std::uint64_t>(i) + 3)] {
             sim::Rng rng(seed + 1);
             const double v =
                 static_cast<double>(rng.next_u64() % 100000) / 7.0;
             return expt::trial_result(seed, {{"value", v}});
           }});
    }
    return trials;
  };
  s.report = [](expt::Report& rep, const expt::ScenarioParams&,
                const std::vector<expt::TrialResult>& results) {
    rep.gate("fixture trials present", !results.empty());
  };
  return s;
}

bool register_fixtures() {
  static const bool once = [] {
    expt::register_scenario(fixture_scenario("zz_mdoc_a", 9100, 2));
    expt::register_scenario(fixture_scenario("zz_mdoc_b", 9101, 1));
    expt::register_scenario(fixture_scenario("zz_mdoc_c", 9102, 3));
    return true;
  }();
  return once;
}

std::string run_to_json(int shard_index, int shard_count, int trials) {
  expt::MatrixOptions opt;
  opt.filter = {"zz_mdoc"};
  opt.trials = trials;
  opt.shard_index = shard_index;
  opt.shard_count = shard_count;
  const auto path =
      std::filesystem::temp_directory_path() /
      ("mdoc_" + std::to_string(::getpid()) + "_" +
       std::to_string(shard_index) + "_" + std::to_string(shard_count) + "_" +
       std::to_string(trials) + ".json");
  opt.json_path = path.string();
  std::ostringstream out, info;
  expt::run_matrix(opt, out, info);
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  std::filesystem::remove(path);
  return ss.str();
}

TEST(MatrixDocMerge, ShardMergeIsByteIdenticalToUnsharded) {
  ASSERT_TRUE(register_fixtures());
  const std::string unsharded = run_to_json(0, 1, 2);
  ASSERT_FALSE(unsharded.empty());
  // 3 scenarios x 2 repeats = 6 units; 8-way leaves two shards empty.
  for (const int n : {2, 4, 8}) {
    std::vector<MatrixDoc> shards;
    for (int i = 0; i < n; ++i) {
      const std::string text = run_to_json(i, n, 2);
      ASSERT_FALSE(text.empty()) << "shard " << i << "/" << n
                                 << " must write a stamped document";
      shards.push_back(parse_matrix_doc(text));
      ASSERT_TRUE(shards.back().shard.has_value());
      EXPECT_EQ(shards.back().shard->index, i);
      EXPECT_EQ(shards.back().shard->count, n);
      EXPECT_EQ(shards.back().shard->units_total, 6u);
    }
    const MatrixDoc merged = merge_matrix_docs(shards);
    EXPECT_EQ(matrix_doc_to_string(merged), unsharded)
        << n << "-way merge must reproduce the unsharded bytes";
  }
}

TEST(MatrixDocMerge, UnshardedDocumentCarriesNoStamp) {
  ASSERT_TRUE(register_fixtures());
  const MatrixDoc doc = parse_matrix_doc(run_to_json(0, 1, 1));
  EXPECT_FALSE(doc.shard.has_value());
}

TEST(MatrixDocMerge, ShardOrderOfInputsDoesNotMatter) {
  ASSERT_TRUE(register_fixtures());
  const std::string unsharded = run_to_json(0, 1, 1);
  std::vector<MatrixDoc> shards;
  for (const int i : {1, 0}) shards.push_back(parse_matrix_doc(run_to_json(i, 2, 1)));
  EXPECT_EQ(matrix_doc_to_string(merge_matrix_docs(shards)), unsharded);
}

MatrixDocError::Kind merge_kind(const std::vector<MatrixDoc>& shards) {
  try {
    merge_matrix_docs(shards);
  } catch (const MatrixDocError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "merge unexpectedly succeeded";
  return MatrixDocError::Kind::Parse;
}

TEST(MatrixDocMerge, TypedRejections) {
  ASSERT_TRUE(register_fixtures());
  const MatrixDoc s0 = parse_matrix_doc(run_to_json(0, 2, 1));
  const MatrixDoc s1 = parse_matrix_doc(run_to_json(1, 2, 1));
  const MatrixDoc whole = parse_matrix_doc(run_to_json(0, 1, 1));

  // Same shard twice: duplicate index.
  EXPECT_EQ(merge_kind({s0, s0}), MatrixDocError::Kind::Overlap);
  // Missing a shard document entirely.
  EXPECT_EQ(merge_kind({s0}), MatrixDocError::Kind::Missing);
  // Unsharded document has no stamp.
  EXPECT_EQ(merge_kind({whole, s1}), MatrixDocError::Kind::Shard);
  // Mismatched partitions (a 4-way stamp among 2-way ones).
  MatrixDoc bad = s1;
  bad.shard->count = 4;
  EXPECT_EQ(merge_kind({s0, bad}), MatrixDocError::Kind::Shard);
  // A unit missing from a shard: Missing with the shard named.
  MatrixDoc short_shard = s1;
  ASSERT_FALSE(short_shard.scenarios.empty());
  short_shard.scenarios.pop_back();
  EXPECT_EQ(merge_kind({s0, short_shard}), MatrixDocError::Kind::Missing);
  // An extra (duplicated) unit in a shard: Overlap.
  MatrixDoc fat_shard = s1;
  fat_shard.scenarios.push_back(fat_shard.scenarios.back());
  EXPECT_EQ(merge_kind({s0, fat_shard}), MatrixDocError::Kind::Overlap);
  // trials_per_scenario disagreement.
  MatrixDoc other_trials = s1;
  other_trials.trials_per_scenario = 9;
  EXPECT_EQ(merge_kind({s0, other_trials}), MatrixDocError::Kind::Schema);
}

TEST(MatrixDocMerge, FailureCountsSumAcrossShards) {
  MatrixDoc a, b;
  a.trials_per_scenario = b.trials_per_scenario = 1;
  a.shard = ShardStamp{0, 2, 0};
  b.shard = ShardStamp{1, 2, 0};
  a.failures = 3;
  b.failures = 4;
  EXPECT_EQ(merge_matrix_docs({a, b}).failures, 7);
}

// ---------------------------------------------------------------------------
// validate: statistics + budgets
// ---------------------------------------------------------------------------

MatrixDoc stats_doc(const std::vector<double>& values) {
  MatrixDoc doc;
  doc.trials_per_scenario = static_cast<int>(values.size());
  ScenarioEntry sc;
  sc.name = "s";
  sc.title = "S";
  sc.scale = 0.1;
  for (std::size_t r = 0; r < values.size(); ++r) {
    RepeatEntry rep;
    rep.repeat = static_cast<int>(r);
    TrialEntry tr;
    tr.name = "t";
    tr.metrics = {{"m", values[r]}};
    rep.trials.push_back(tr);
    sc.repeats.push_back(rep);
  }
  doc.scenarios.push_back(sc);
  return doc;
}

TEST(MatrixDocValidate, NearestRankStatsAcrossRepeats) {
  // Insertion order must not matter; nearest-rank over {1..5}.
  const auto stats = doc_metric_stats(stats_doc({4, 1, 5, 2, 3}));
  ASSERT_EQ(stats.size(), 1u);
  const MetricStats& st = stats[0];
  EXPECT_EQ(st.scenario, "s");
  EXPECT_EQ(st.trial, "t");
  EXPECT_EQ(st.metric, "m");
  EXPECT_EQ(st.n, 5);
  EXPECT_EQ(st.min, 1);
  EXPECT_EQ(st.median, 3);
  EXPECT_EQ(st.mean, 3);
  EXPECT_EQ(st.ci_lo, 1) << "ceil(0.025*5) = 1st order statistic";
  EXPECT_EQ(st.ci_hi, 5) << "ceil(0.975*5) = 5th order statistic";
}

TEST(MatrixDocValidate, SingleRepeatDegenerateInterval) {
  const auto stats = doc_metric_stats(stats_doc({42.5}));
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].n, 1);
  EXPECT_EQ(stats[0].median, 42.5);
  EXPECT_EQ(stats[0].ci_lo, 42.5);
  EXPECT_EQ(stats[0].ci_hi, 42.5);
}

TEST(MatrixDocValidate, BudgetsParseAndAssert) {
  const auto budgets = parse_budgets(
      "# comment\n"
      "\n"
      "s|t|m|2.5|3.5\n"
      "s|t|m|10|20\n"
      "s|t|absent|0|1\n");
  ASSERT_EQ(budgets.size(), 3u);
  EXPECT_EQ(budgets[0].scenario, "s");
  EXPECT_EQ(budgets[0].trial, "t");
  EXPECT_EQ(budgets[0].metric, "m");
  EXPECT_EQ(budgets[0].lo, 2.5);
  EXPECT_EQ(budgets[0].hi, 3.5);

  std::ostringstream os;
  // median of {1..5} is 3: first budget passes, second (10..20) fails,
  // third names a series the document lacks.
  const int violations =
      render_validation(os, stats_doc({4, 1, 5, 2, 3}), budgets);
  EXPECT_EQ(violations, 2);
  EXPECT_NE(os.str().find("median 3 in [2.5, 3.5]: PASS"), std::string::npos);
  EXPECT_NE(os.str().find("median 3 in [10, 20]: FAIL"), std::string::npos);
  EXPECT_NE(os.str().find("series absent from document: FAIL"),
            std::string::npos);
}

TEST(MatrixDocValidate, BudgetsRejectMalformedLines) {
  EXPECT_THROW(parse_budgets("s|t|m|1\n"), MatrixDocError);
  EXPECT_THROW(parse_budgets("s|t|m|x|2\n"), MatrixDocError);
  EXPECT_THROW(parse_budgets("s|t|m|3|2\n"), MatrixDocError)
      << "inverted interval";
  EXPECT_TRUE(parse_budgets("").empty());
  EXPECT_TRUE(parse_budgets("# only comments\n").empty());
}

// ---------------------------------------------------------------------------
// diff: threshold edges, gate flips, structure
// ---------------------------------------------------------------------------

int diff_count(const MatrixDoc& a, const MatrixDoc& b, double threshold) {
  std::ostringstream os;
  return render_diff(os, a, b, threshold);
}

TEST(MatrixDocDiff, ThresholdIsStrictlyAbove) {
  const MatrixDoc base = stats_doc({100.0});
  EXPECT_EQ(diff_count(base, stats_doc({105.0}), 0.05), 0)
      << "exactly at threshold: not reported";
  EXPECT_EQ(diff_count(base, stats_doc({105.0001}), 0.05), 1);
  EXPECT_EQ(diff_count(base, stats_doc({104.9999}), 0.05), 0);
  EXPECT_EQ(diff_count(base, stats_doc({95.0001}), 0.05), 0);
  EXPECT_EQ(diff_count(base, stats_doc({94.9999}), 0.05), 1);
  EXPECT_EQ(diff_count(base, stats_doc({100.0}), 0.0), 0)
      << "identical values never drift, even at threshold 0";
  EXPECT_EQ(diff_count(base, stats_doc({100.0001}), 0.0), 1);
}

TEST(MatrixDocDiff, RejectsNonFiniteOrNegativeThreshold) {
  // A NaN threshold compares false with every drift: a +50 % change would
  // otherwise report "0 drift line(s)".
  const MatrixDoc base = stats_doc({100.0});
  const MatrixDoc next = stats_doc({150.0});
  for (const double bad : {kNaN, std::numeric_limits<double>::infinity(),
                           -0.01}) {
    std::ostringstream os;
    EXPECT_THROW(render_diff(os, base, next, bad), std::invalid_argument)
        << bad;
    EXPECT_TRUE(os.str().empty()) << "nothing rendered before the check";
  }
  EXPECT_EQ(diff_count(base, next, 0.05), 1);
}

TEST(MatrixDocDiff, ZeroAndNaNBases) {
  EXPECT_EQ(diff_count(stats_doc({0.0}), stats_doc({0.0}), 0.05), 0);
  EXPECT_EQ(diff_count(stats_doc({0.0}), stats_doc({1e-9}), 0.05), 1)
      << "zero base with nonzero next is always drift";
  EXPECT_EQ(diff_count(stats_doc({kNaN}), stats_doc({kNaN}), 0.05), 0)
      << "NaN == NaN for diff purposes";
  EXPECT_EQ(diff_count(stats_doc({kNaN}), stats_doc({1.0}), 0.05), 1);
  EXPECT_EQ(diff_count(stats_doc({1.0}), stats_doc({kNaN}), 0.05), 1);
}

TEST(MatrixDocDiff, GateFlipsAndStructuralChanges) {
  MatrixDoc base = stats_doc({1.0});
  base.scenarios[0].repeats[0].gates = {{"g", true}};
  MatrixDoc flipped = base;
  flipped.scenarios[0].repeats[0].gates[0].pass = false;
  std::ostringstream os;
  EXPECT_EQ(render_diff(os, base, flipped, 0.05), 1);
  EXPECT_NE(os.str().find("PASS -> FAIL"), std::string::npos);

  MatrixDoc renamed = base;
  renamed.scenarios[0].repeats[0].gates[0].name = "g2";
  EXPECT_EQ(diff_count(base, renamed, 0.05), 2)
      << "a renamed gate is one removal plus one addition";

  MatrixDoc missing = base;
  missing.scenarios.clear();
  EXPECT_EQ(diff_count(base, missing, 0.05), 1) << "scenario removed";
  EXPECT_EQ(diff_count(missing, base, 0.05), 1) << "scenario added";

  MatrixDoc extra_metric = base;
  extra_metric.scenarios[0].repeats[0].trials[0].metrics.emplace_back("new",
                                                                      1.0);
  EXPECT_EQ(diff_count(base, extra_metric, 0.05), 1);
  EXPECT_EQ(diff_count(extra_metric, base, 0.05), 1);

  MatrixDoc now_fails = base;
  now_fails.scenarios[0].repeats[0].trials[0].failed = true;
  now_fails.scenarios[0].repeats[0].trials[0].error = "x";
  EXPECT_EQ(diff_count(base, now_fails, 0.05), 1);
}

}  // namespace
}  // namespace ktau::analysis
