// Tests for the experiment spine (src/experiments/harness.*) and its
// reporting primitives (src/analysis/report.*):
//
//   - seed derivation (salt 0 = historical seeds; salted repeats
//     decorrelate deterministically);
//   - scenario registry ordering, lookup, duplicate rejection, filtering;
//   - runner CLI parsing;
//   - deterministic JSON emission (escaping, double formatting, writer
//     structure);
//   - the byte-identity contract: run_matrix output (stdout and JSON) is
//     identical for --jobs 1 and --jobs 4, including salted repeats;
//   - trial exceptions turn into a failed "all trials completed" gate and
//     an "error" entry in the JSON document; a JSON document that cannot
//     be written counts as a failure;
//   - cross-trial isolation: two full sim instances running concurrently
//     produce bit-identical results to sequential execution;
//   - the per-call Chiba run store: equal resolved configs simulate once,
//     any other field difference does not share, and a throwing shared run
//     fails every trial that shares it;
//   - TraceBuffer wraparound / drop-accounting edges (the lossy ring the
//     tracing ablation leans on).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/report.hpp"
#include "experiments/chiba.hpp"
#include "experiments/harness.hpp"
#include "ktau/trace.hpp"
#include "sim/rng.hpp"

namespace ktau::expt {
namespace {

// ---------------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------------

TEST(ScenarioParamsSeed, SaltZeroPreservesHistoricalSeeds) {
  ScenarioParams p;  // repeat 0, salt 0
  EXPECT_EQ(p.seed(7), 7u);
  EXPECT_EQ(p.seed(42), 42u);
  EXPECT_EQ(p.seed(0), 0u);
}

TEST(ScenarioParamsSeed, SaltMixesDeterministically) {
  ScenarioParams p;
  p.salt = 0xDEADBEEFu;
  const std::uint64_t a = p.seed(7);
  std::uint64_t state = 7ull ^ 0xDEADBEEFull;
  EXPECT_EQ(a, sim::splitmix64(state));
  EXPECT_EQ(a, p.seed(7)) << "pure function of (salt, historical)";
  EXPECT_NE(a, 7u);

  ScenarioParams q;
  q.salt = 0xDEADBEF0u;
  EXPECT_NE(p.seed(7), q.seed(7)) << "different salts decorrelate";
  EXPECT_NE(p.seed(7), p.seed(8)) << "different historical seeds stay apart";
}

TEST(Harness, DefaultScaleIsTheDocumentedConstant) {
  // CLAUDE.md / EXPERIMENTS.md quote `bench 0.1`; the constant is the single
  // source of truth for that default.
  EXPECT_DOUBLE_EQ(kDefaultScale, 0.1);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// The test binary links no bench scenario objects, so the registry holds
// only what these tests register.  Names are prefixed to keep them apart
// from any future real scenario.
ScenarioSpec make_counting_scenario(const std::string& name, int order,
                                    int n_trials) {
  ScenarioSpec s;
  s.name = name;
  s.title = "test scenario " + name;
  s.order = order;
  s.trials = [n_trials](const ScenarioParams& p) {
    std::vector<TrialSpec> trials;
    for (int i = 0; i < n_trials; ++i) {
      trials.push_back({std::string("t").append(std::to_string(i)),
                        [seed = p.seed(static_cast<std::uint64_t>(i)),
                         scale = p.scale] {
                          // Cheap deterministic work: a seeded RNG walk.
                          sim::Rng rng(seed + 1);
                          std::uint64_t acc = 0;
                          const int steps =
                              100 + static_cast<int>(scale * 100);
                          for (int k = 0; k < steps; ++k) {
                            acc ^= rng.next_u64();
                          }
                          return trial_result(
                              acc, {{"acc", static_cast<double>(acc & 0xFFFF)},
                                    {"steps", static_cast<double>(steps)}});
                        }});
    }
    return trials;
  };
  s.report = [](Report& rep, const ScenarioParams& p,
                const std::vector<TrialResult>& results) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      rep.printf("trial %zu acc %.0f\n", i, results[i].metrics[0].second);
    }
    rep.printf("scale %.2f repeat %d\n", p.scale, p.repeat);
    rep.gate("all payloads recoverable", [&] {
      for (const auto& r : results) {
        (void)payload<std::uint64_t>(r);
      }
      return true;
    }());
  };
  return s;
}

bool register_fixture_scenarios() {
  static const bool once = [] {
    register_scenario(make_counting_scenario("zz_spine_b", 9001, 3));
    register_scenario(make_counting_scenario("zz_spine_a", 9001, 2));
    register_scenario(make_counting_scenario("zz_spine_c", 9000, 1));
    ScenarioSpec thrower;
    thrower.name = "zz_thrower";
    thrower.title = "always throws";
    thrower.order = 9002;
    thrower.trials = [](const ScenarioParams&) {
      std::vector<TrialSpec> trials;
      trials.push_back({"ok", [] { return trial_result(1); }});
      trials.push_back({"boom", []() -> TrialResult {
                          throw std::runtime_error("boom");
                        }});
      return trials;
    };
    thrower.report = [](Report& rep, const ScenarioParams&,
                        const std::vector<TrialResult>&) {
      rep.gate("report should never run", false);
    };
    register_scenario(std::move(thrower));
    return true;
  }();
  return once;
}

TEST(ScenarioRegistry, OrderThenNameAndLookup) {
  ASSERT_TRUE(register_fixture_scenarios());
  const auto all = scenarios();
  // Our fixtures sort after every real scenario (order 9000+) and among
  // themselves by (order, name).
  std::vector<std::string> ours;
  for (const ScenarioSpec* s : all) {
    if (s->name.rfind("zz_", 0) == 0) ours.push_back(s->name);
  }
  EXPECT_EQ(ours, (std::vector<std::string>{"zz_spine_c", "zz_spine_a",
                                            "zz_spine_b", "zz_thrower"}));
  ASSERT_NE(find_scenario("zz_spine_a"), nullptr);
  EXPECT_EQ(find_scenario("zz_spine_a")->title, "test scenario zz_spine_a");
  EXPECT_EQ(find_scenario("zz_no_such"), nullptr);
}

TEST(ScenarioRegistry, DuplicateNamesRejected) {
  ASSERT_TRUE(register_fixture_scenarios());
  EXPECT_FALSE(register_scenario(make_counting_scenario("zz_spine_a", 1, 1)));
}

// ---------------------------------------------------------------------------
// CLI parsing
// ---------------------------------------------------------------------------

bool parse(std::vector<std::string> args, MatrixOptions& opt,
           std::string* err = nullptr) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  bool list = false, help = false;
  std::string error;
  const bool ok = parse_matrix_args(static_cast<int>(argv.size()), argv.data(),
                                    opt, list, help, error);
  if (err != nullptr) *err = error;
  return ok;
}

TEST(MatrixCli, ParsesEveryFlag) {
  MatrixOptions opt;
  ASSERT_TRUE(parse({"--scale", "0.25", "--trials", "3", "--jobs", "4",
                     "--seed", "0x2a", "--json", "out.json", "--filter",
                     "table2,fig"},
                    opt));
  EXPECT_DOUBLE_EQ(opt.scale, 0.25);
  EXPECT_EQ(opt.trials, 3);
  EXPECT_EQ(opt.jobs, 4);
  EXPECT_TRUE(opt.seed_set);
  EXPECT_EQ(opt.seed, 42u);
  EXPECT_EQ(opt.json_path, "out.json");
  EXPECT_EQ(opt.filter, (std::vector<std::string>{"table2", "fig"}));
}

TEST(MatrixCli, ParsesStackModel) {
  MatrixOptions opt;
  EXPECT_EQ(opt.stack, knet::StackKind::Fixed);  // default stays historical
  ASSERT_TRUE(parse({"--stack", "reno"}, opt));
  EXPECT_EQ(opt.stack, knet::StackKind::Reno);
  ASSERT_TRUE(parse({"--stack", "rack"}, opt));
  EXPECT_EQ(opt.stack, knet::StackKind::Rack);
  ASSERT_TRUE(parse({"--stack", "fixed"}, opt));
  EXPECT_EQ(opt.stack, knet::StackKind::Fixed);
}

TEST(MatrixCli, RejectsUnknownStackModel) {
  MatrixOptions opt;
  std::string err;
  EXPECT_FALSE(parse({"--stack", "cubic"}, opt, &err));
  EXPECT_NE(err.find("--stack"), std::string::npos);
  EXPECT_FALSE(parse({"--stack"}, opt, &err));
}

TEST(MatrixCli, BarePositionalNumberIsRejected) {
  MatrixOptions opt;
  std::string err;
  EXPECT_FALSE(parse({"0.3"}, opt, &err));
  EXPECT_NE(err.find("--scale"), std::string::npos) << err;
  EXPECT_DOUBLE_EQ(opt.scale, 0.0) << "a rejected argument sets nothing";
}

TEST(MatrixCli, RejectsBadInput) {
  MatrixOptions opt;
  std::string err;
  EXPECT_FALSE(parse({"--scale", "-1"}, opt, &err));
  // Non-finite scales would reach static_cast<int>(n * scale).
  for (const char* bad : {"inf", "1e400", "nan"}) {
    EXPECT_FALSE(parse({"--scale", bad}, opt, &err)) << bad;
    EXPECT_NE(err.find("--scale"), std::string::npos) << bad;
  }
  EXPECT_FALSE(parse({"--trials", "0"}, opt, &err));
  EXPECT_FALSE(parse({"--jobs"}, opt, &err));
  EXPECT_FALSE(parse({"--bogus"}, opt, &err));
  EXPECT_FALSE(parse({"notanumber"}, opt, &err));
  EXPECT_FALSE(err.empty());
  // strtoull alone would negate "-1" and saturate on overflow.
  for (const char* bad : {"-1", "99999999999999999999", "0x1ffffffffffffffff",
                          "+5", " 5", "", "7x"}) {
    EXPECT_FALSE(parse({"--seed", bad}, opt, &err)) << bad;
    EXPECT_NE(err.find("--seed"), std::string::npos) << bad;
  }
  EXPECT_FALSE(opt.seed_set) << "a rejected seed sets nothing";
  // An empty list would silently select every scenario.
  for (const char* bad : {",", "", ",,"}) {
    EXPECT_FALSE(parse({"--filter", bad}, opt, &err)) << bad;
    EXPECT_NE(err.find("--filter"), std::string::npos) << bad;
  }
  EXPECT_TRUE(opt.filter.empty());
  // The largest seed is not an overflow.
  ASSERT_TRUE(parse({"--seed", "18446744073709551615"}, opt));
  EXPECT_EQ(opt.seed, 18446744073709551615ull);
}

TEST(MatrixCli, ParsesShard) {
  MatrixOptions opt;
  EXPECT_EQ(opt.shard_index, 0);  // default selects everything
  EXPECT_EQ(opt.shard_count, 1);
  ASSERT_TRUE(parse({"--shard", "2/5"}, opt));
  EXPECT_EQ(opt.shard_index, 2);
  EXPECT_EQ(opt.shard_count, 5);
  ASSERT_TRUE(parse({"--shard", "0/1"}, opt));
  EXPECT_EQ(opt.shard_index, 0);
  EXPECT_EQ(opt.shard_count, 1);
}

TEST(MatrixCli, RejectsBadShard) {
  MatrixOptions opt;
  std::string err;
  for (const char* bad : {"x/y", "3", "3/", "/4", "-1/4", "4/4", "5/4",
                          "0/0", "1/2junk"}) {
    EXPECT_FALSE(parse({"--shard", bad}, opt, &err)) << bad;
    EXPECT_NE(err.find("--shard"), std::string::npos) << bad;
  }
  EXPECT_FALSE(parse({"--shard"}, opt, &err));
}

// ---------------------------------------------------------------------------
// JSON primitives
// ---------------------------------------------------------------------------

TEST(ReportPrintf, LinesLongerThanTheStackBufferAreWhole) {
  std::ostringstream os;
  Report rep(os);
  const std::string wide(2000, 'x');
  rep.printf("short %d\n", 7);
  rep.printf("[%s]\n", wide.c_str());
  EXPECT_EQ(os.str(), "short 7\n[" + wide + "]\n");
}

TEST(JsonPrimitives, Escaping) {
  using analysis::json_escape;
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

TEST(JsonPrimitives, DoubleFormatting) {
  auto fmt = [](double v) {
    std::ostringstream os;
    analysis::write_json_double(os, v);
    return os.str();
  };
  EXPECT_EQ(fmt(std::nan("")), "null");
  EXPECT_EQ(fmt(INFINITY), "null");
  EXPECT_EQ(fmt(-INFINITY), "null");
  EXPECT_EQ(fmt(0.0), "0");
  // Round-trip: %.17g preserves the exact bits of 0.1.
  EXPECT_EQ(std::stod(fmt(0.1)), 0.1);
}

TEST(JsonPrimitives, WriterStructure) {
  std::ostringstream os;
  analysis::JsonWriter w(os);
  w.begin_object();
  w.kv("name", "x");
  w.key("values").begin_array();
  w.value(1).value(true).value(std::string_view("s"));
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(),
            "{\n  \"name\": \"x\",\n  \"values\": [\n    1,\n    true,\n"
            "    \"s\"\n  ]\n}");
}

TEST(JsonPrimitives, GateSummaryCountsFailures) {
  std::ostringstream os;
  const int failures = analysis::render_gate_summary(
      os, {{"s1", "g1", true}, {"s1", "g2", false}, {"s2", "g3", true}});
  EXPECT_EQ(failures, 1);
  EXPECT_NE(os.str().find("<-- FAIL"), std::string::npos);
  EXPECT_NE(os.str().find("g2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// run_matrix: byte identity, salted repeats, error handling
// ---------------------------------------------------------------------------

struct MatrixRun {
  std::string out;
  std::string json;
  int failures = 0;
};

MatrixRun run_filtered(std::vector<std::string> filter, int jobs, int trials,
                       bool with_json = true, std::uint64_t seed = 0,
                       bool seed_set = false) {
  MatrixOptions opt;
  opt.filter = std::move(filter);
  opt.jobs = jobs;
  opt.trials = trials;
  opt.seed = seed;
  opt.seed_set = seed_set;
  std::filesystem::path json_path;
  if (with_json) {
    json_path = std::filesystem::temp_directory_path() /
                ("ktau_test_harness_" + std::to_string(::getpid()) + "_" +
                 std::to_string(jobs) + ".json");
    opt.json_path = json_path.string();
  }
  std::ostringstream out, info;
  MatrixRun r;
  r.failures = run_matrix(opt, out, info);
  r.out = out.str();
  if (with_json) {
    std::ifstream f(json_path);
    std::stringstream ss;
    ss << f.rdbuf();
    r.json = ss.str();
    std::filesystem::remove(json_path);
  }
  return r;
}

TEST(RunMatrix, JobsOutputIsByteIdentical) {
  ASSERT_TRUE(register_fixture_scenarios());
  const auto seq = run_filtered({"zz_spine"}, 1, 3);
  const auto par = run_filtered({"zz_spine"}, 4, 3);
  EXPECT_EQ(seq.failures, 0);
  EXPECT_EQ(par.failures, 0);
  EXPECT_EQ(seq.out, par.out) << "--jobs must not leak into stdout";
  EXPECT_EQ(seq.json, par.json) << "--jobs must not leak into the JSON";
  EXPECT_FALSE(seq.json.empty());
  EXPECT_NE(seq.json.find("\"schema\": \"ktau-matrix-v1\""),
            std::string::npos);
}

TEST(RunMatrix, RepeatZeroKeepsHistoricalSaltAndLaterRepeatsDecorrelate) {
  ASSERT_TRUE(register_fixture_scenarios());
  const auto r = run_filtered({"zz_spine_c"}, 1, 2);
  // Repeat 0 runs the historical seeds (salt 0); repeat 1 is salted.
  EXPECT_NE(r.json.find("\"salt\": 0"), std::string::npos);
  EXPECT_NE(r.out.find("repeat 1/2"), std::string::npos);
  EXPECT_NE(r.out.find("repeat 2/2"), std::string::npos);

  // A user seed decorrelates repeat 0 as well: no zero salt anywhere.
  const auto seeded =
      run_filtered({"zz_spine_c"}, 1, 1, true, 1234, true);
  EXPECT_EQ(seeded.json.find("\"salt\": 0"), std::string::npos);
}

TEST(RunMatrix, TrialExceptionBecomesFailedGateAndJsonError) {
  ASSERT_TRUE(register_fixture_scenarios());
  const auto r = run_filtered({"zz_thrower"}, 2, 1);
  EXPECT_GE(r.failures, 1);
  EXPECT_NE(r.out.find("trial boom failed: boom"), std::string::npos);
  EXPECT_NE(r.out.find("all trials completed: FAIL"), std::string::npos);
  // The report callback must not run on partial results.
  EXPECT_EQ(r.out.find("report should never run"), std::string::npos);
  EXPECT_NE(r.json.find("\"error\": \"boom\""), std::string::npos);
}

TEST(RunMatrix, UnwritableJsonIsAFailure) {
  ASSERT_TRUE(register_fixture_scenarios());
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  MatrixOptions opt;
  opt.filter = {"zz_spine_c"};
  opt.json_path = "/dev/full";  // opens fine, every write fails (ENOSPC)
  std::ostringstream out, info;
  EXPECT_GE(run_matrix(opt, out, info), 1);
  EXPECT_NE(info.str().find("cannot write /dev/full"), std::string::npos);
  EXPECT_EQ(info.str().find("wrote /dev/full"), std::string::npos);
}

TEST(RunMatrix, EmptySelectionIsAnError) {
  ASSERT_TRUE(register_fixture_scenarios());
  MatrixOptions opt;
  opt.filter = {"zz_definitely_absent"};
  std::ostringstream out, info;
  EXPECT_EQ(run_matrix(opt, out, info), 1);
  EXPECT_NE(info.str().find("no scenario matches"), std::string::npos);
}

// ---------------------------------------------------------------------------
// --shard: deterministic unit partition
// ---------------------------------------------------------------------------

MatrixRun run_sharded(std::vector<std::string> filter, int index, int count,
                      int trials = 1) {
  MatrixOptions opt;
  opt.filter = std::move(filter);
  opt.trials = trials;
  opt.shard_index = index;
  opt.shard_count = count;
  std::ostringstream out, info;
  MatrixRun r;
  r.failures = run_matrix(opt, out, info);
  r.out = out.str();
  r.json = info.str();  // reused field: shard messages land on info
  return r;
}

TEST(RunMatrixShard, ZeroOfOneIsByteIdenticalToNoFlag) {
  ASSERT_TRUE(register_fixture_scenarios());
  const auto plain = run_filtered({"zz_spine"}, 1, 2, /*with_json=*/false);
  const auto sharded = run_sharded({"zz_spine"}, 0, 1, 2);
  EXPECT_EQ(plain.out, sharded.out);
  EXPECT_EQ(plain.failures, sharded.failures);
}

TEST(RunMatrixShard, TwoWayPartitionIsDisjointAndExhaustive) {
  ASSERT_TRUE(register_fixture_scenarios());
  // 3 scenarios x 2 repeats = 6 units in canonical order; shards take the
  // even and odd ordinals respectively.
  const auto s0 = run_sharded({"zz_spine"}, 0, 2, 2);
  const auto s1 = run_sharded({"zz_spine"}, 1, 2, 2);
  EXPECT_EQ(s0.failures, 0);
  EXPECT_EQ(s1.failures, 0);

  // Each (scenario, repeat) unit header appears in exactly one shard and
  // the union covers all six.  Canonical order interleaves repeats within
  // a scenario, so the even shard gets every repeat 0 and the odd shard
  // every repeat 1.
  const auto count_of = [](const std::string& hay, const std::string& s) {
    std::size_t n = 0;
    for (std::size_t p = hay.find(s); p != std::string::npos;
         p = hay.find(s, p + 1)) {
      ++n;
    }
    return n;
  };
  for (const char* name : {"zz_spine_c", "zz_spine_a", "zz_spine_b"}) {
    const std::string header = std::string(name) + " — ";
    EXPECT_EQ(count_of(s0.out, header), 1u) << name;
    EXPECT_EQ(count_of(s1.out, header), 1u) << name;
  }
  EXPECT_EQ(count_of(s0.out, "repeat 1/2"), 3u);
  EXPECT_EQ(count_of(s0.out, "repeat 2/2"), 0u);
  EXPECT_EQ(count_of(s1.out, "repeat 1/2"), 0u);
  EXPECT_EQ(count_of(s1.out, "repeat 2/2"), 3u);
}

TEST(RunMatrixShard, EmptyShardIsNotAnError) {
  ASSERT_TRUE(register_fixture_scenarios());
  // One unit, four shards: three shards select nothing and must exit
  // cleanly (machine-spreading CI depends on this).
  const auto hit = run_sharded({"zz_spine_c"}, 0, 4);
  const auto miss = run_sharded({"zz_spine_c"}, 3, 4);
  EXPECT_EQ(hit.failures, 0);
  EXPECT_GT(hit.out.size(), 0u);
  EXPECT_EQ(miss.failures, 0);
  EXPECT_EQ(miss.out.size(), 0u);
  EXPECT_NE(miss.json.find("selects none"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cross-trial isolation: whole sim instances are safe to run concurrently
// ---------------------------------------------------------------------------

ChibaRunConfig mini(std::uint64_t seed) {
  ChibaRunConfig cfg;
  cfg.config = ChibaConfig::C64x2;
  cfg.workload = Workload::LU;
  cfg.ranks = 16;
  cfg.scale = 0.04;
  cfg.seed = seed;
  return cfg;
}

void expect_bit_identical(const ChibaRunResult& a, const ChibaRunResult& b) {
  EXPECT_EQ(a.exec_sec, b.exec_sec);
  EXPECT_EQ(a.engine_events, b.engine_events);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].exec_sec, b.ranks[r].exec_sec);
    EXPECT_EQ(a.ranks[r].vol_sched_sec, b.ranks[r].vol_sched_sec);
    EXPECT_EQ(a.ranks[r].invol_sched_sec, b.ranks[r].invol_sched_sec);
    EXPECT_EQ(a.ranks[r].tcp_calls, b.ranks[r].tcp_calls);
    EXPECT_EQ(a.ranks[r].recv_calls, b.ranks[r].recv_calls);
  }
}

TEST(CrossTrialIsolation, ConcurrentRunsMatchSequentialBitForBit) {
  // Sequential reference runs.
  const auto seq5 = run_chiba(mini(5));
  const auto seq6 = run_chiba(mini(6));

  // The same two runs concurrently: distinct sim instance trees must not
  // interact through any hidden shared state (the harness worker pool
  // relies on exactly this).
  ChibaRunResult par5, par6;
  std::thread t5([&] { par5 = run_chiba(mini(5)); });
  std::thread t6([&] { par6 = run_chiba(mini(6)); });
  t5.join();
  t6.join();

  expect_bit_identical(seq5, par5);
  expect_bit_identical(seq6, par6);
  // And the two seeds genuinely differ (the comparison is not vacuous).
  EXPECT_NE(seq5.engine_events, seq6.engine_events);
}

// ---------------------------------------------------------------------------
// ChibaRunStore: one simulation per distinct resolved config and call
// ---------------------------------------------------------------------------

using SharedRun = std::shared_ptr<const ChibaRunResult>;

/// mini() cut to LU's minimum of three iterations.
ChibaRunConfig short_mini(std::uint64_t seed) {
  ChibaRunConfig cfg = mini(seed);
  cfg.scale = 0.01;
  return cfg;
}

/// Payloads the store scenarios' reports saw, in report (canonical) order.
std::vector<SharedRun>& reported_runs() {
  static std::vector<SharedRun> runs;
  return runs;
}

ScenarioSpec make_store_scenario(const std::string& name, int order,
                                 std::vector<ChibaRunConfig> cfgs) {
  ScenarioSpec s;
  s.name = name;
  s.title = "store scenario " + name;
  s.order = order;
  s.trials = [cfgs](const ScenarioParams& p) {
    std::vector<TrialSpec> trials;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      trials.push_back({std::string("run").append(std::to_string(i)),
                        [p, cfg = cfgs[i]] {
                          const auto run = p.chiba_run(cfg);
                          return trial_result(run,
                                              {{"exec_sec", run->exec_sec}});
                        }});
    }
    return trials;
  };
  s.report = [](Report& rep, const ScenarioParams&,
                const std::vector<TrialResult>& results) {
    for (const auto& r : results) {
      reported_runs().push_back(
          std::any_cast<const SharedRun&>(r.payload));
      rep.printf("exec %.9f\n", payload<ChibaRunResult>(r).exec_sec);
    }
    rep.gate("store scenario reported", true);
  };
  return s;
}

/// A config whose run throws at build time (no nodes for its ranks).
ChibaRunConfig unbuildable() {
  ChibaRunConfig cfg = short_mini(5);
  cfg.ranks = 1;
  return cfg;
}

bool register_store_scenarios() {
  // Not "zz_": ScenarioRegistry.OrderThenNameAndLookup lists those exactly.
  static const bool once = [] {
    ChibaRunConfig explicit_fixed = short_mini(5);
    explicit_fixed.stack = knet::StackKind::Fixed;
    explicit_fixed.sim_threads = 2;
    register_scenario(make_store_scenario("xx_store_a", 9200, {short_mini(5)}));
    register_scenario(
        make_store_scenario("xx_store_b", 9201, {explicit_fixed}));
    register_scenario(make_store_scenario("xx_store_throw", 9202,
                                          {unbuildable(), unbuildable()}));
    return true;
  }();
  return once;
}

TEST(ChibaRunStore, EqualConfigsAcrossScenariosSimulateOnce) {
  ASSERT_TRUE(register_store_scenarios());
  const auto direct = run_chiba(short_mini(5));
  std::string first_out, first_json;
  for (const int jobs : {1, 4}) {
    reported_runs().clear();
    const auto r = run_filtered({"xx_store_a", "xx_store_b"}, jobs, 1);
    EXPECT_EQ(r.failures, 0) << r.out;
    // xx_store_b asks with sim_threads 2 and an explicit Fixed stack: the
    // same resolved config, so the same simulation object.
    ASSERT_EQ(reported_runs().size(), 2u);
    EXPECT_EQ(reported_runs()[0], reported_runs()[1]) << "jobs " << jobs;
    expect_bit_identical(*reported_runs()[0], direct);
    if (jobs == 1) {
      first_out = r.out;
      first_json = r.json;
    } else {
      EXPECT_EQ(r.out, first_out);
      EXPECT_EQ(r.json, first_json);
    }
  }
}

TEST(ChibaRunStore, NullStoreSimulatesEveryRequest) {
  const ScenarioParams p;  // what tests and direct callers get
  const auto a = p.chiba_run(short_mini(5));
  const auto b = p.chiba_run(short_mini(5));
  EXPECT_NE(a, b);
  expect_bit_identical(*a, *b);
}

TEST(ChibaRunStore, SimThreadsAndTheDefaultStackShareARun) {
  set_default_stack_model(knet::StackKind::Fixed);
  ChibaRunStore store;
  const auto base = store.run(short_mini(6));
  ChibaRunConfig threads = short_mini(6);
  threads.sim_threads = 4;
  ChibaRunConfig fixed = short_mini(6);
  fixed.stack = knet::StackKind::Fixed;
  EXPECT_EQ(store.run(threads), base);
  EXPECT_EQ(store.run(fixed), base);
  EXPECT_EQ(store.simulations(), 1u);
  expect_bit_identical(*base, run_chiba(short_mini(6)));

  // Under another process default, an unset stack no longer means Fixed.
  set_default_stack_model(knet::StackKind::Reno);
  ChibaRunStore other;
  const auto reno = other.run(short_mini(6));
  EXPECT_NE(other.run(fixed), reno);
  EXPECT_EQ(other.simulations(), 2u);
  set_default_stack_model(knet::StackKind::Fixed);
}

TEST(ChibaRunStore, DifferingConfigsDoNotShare) {
  // Two real runs for fields nested two structs deep...
  ChibaRunStore store;
  ChibaRunConfig lu = short_mini(5);
  lu.lu_override = chiba_lu_params(lu);
  ChibaRunConfig lu_halo = lu;
  lu_halo.lu_override->halo_bytes += 1024;
  ChibaRunConfig faults = short_mini(5);
  faults.faults.rto += sim::kMillisecond;  // inert, yet a different config
  const auto a = store.run(lu);
  const auto b = store.run(lu_halo);
  const auto c = store.run(faults);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(store.simulations(), 3u);
  EXPECT_NE(a->exec_sec, b->exec_sec) << "halo size changes the run";
  expect_bit_identical(*c, run_chiba(short_mini(5)));

  // ...and every other field, cheaply: each variant of a config that throws
  // at build time is a new store entry (a new, failing run).
  const std::vector<std::function<void(ChibaRunConfig&)>> one_field = {
      [](auto& c) { c.config = ChibaConfig::C64x2Pinned; },
      [](auto& c) { c.workload = Workload::Sweep3D; },
      [](auto& c) { c.perturb = PerturbMode::Base; },
      [](auto& c) { c.ranks = 0; },
      [](auto& c) { c.seed += 1; },
      [](auto& c) { c.daemons = false; },
      [](auto& c) { c.stack = knet::StackKind::Rack; },
      [](auto& c) { c.scale *= 2; },
      [](auto& c) { c.timer_probe_density = 3; },
      [](auto& c) { c.tau_inner_pairs = 3; },
      [](auto& c) { c.smp_dilation_override = 0.0; },
      [](auto& c) { c.tcp_cache_penalty_override = 0; },
      [](auto& c) { c.lu_override = apps::LuParams{}; },
      [](auto& c) {
        c.lu_override = apps::LuParams{};
        c.lu_override->tau.inner_pairs = 1;
      },
      [](auto& c) { c.sweep_override = apps::SweepParams{}; },
      [](auto& c) {
        c.sweep_override = apps::SweepParams{};
        c.sweep_override->jitter = 0;
      },
      [](auto& c) { c.tracing = true; },
      [](auto& c) { c.faults.victims = {0}; },
      [](auto& c) { c.faults.seed += 1; },
  };
  ChibaRunStore failing;
  EXPECT_THROW(failing.run(unbuildable()), std::invalid_argument);
  std::size_t expected = 1;
  for (std::size_t i = 0; i < one_field.size(); ++i) {
    ChibaRunConfig cfg = unbuildable();
    one_field[i](cfg);
    EXPECT_THROW(failing.run(cfg), std::invalid_argument) << "variant " << i;
    EXPECT_EQ(failing.simulations(), ++expected) << "variant " << i;
  }
  // Asking again for a failed config shares the failure, not a new run.
  EXPECT_THROW(failing.run(unbuildable()), std::invalid_argument);
  EXPECT_EQ(failing.simulations(), expected);
}

TEST(ChibaRunStore, ThrowingSharedRunFailsEveryTrialSharingIt) {
  ASSERT_TRUE(register_store_scenarios());
  std::string what;
  try {
    run_chiba(unbuildable());
  } catch (const std::exception& e) {
    what = e.what();
  }
  ASSERT_FALSE(what.empty());
  for (const int jobs : {1, 2}) {
    const auto r = run_filtered({"xx_store_throw"}, jobs, 1);
    EXPECT_GE(r.failures, 1);
    EXPECT_NE(r.out.find("trial run0 failed: " + what), std::string::npos);
    EXPECT_NE(r.out.find("trial run1 failed: " + what), std::string::npos);
    EXPECT_NE(r.out.find("all trials completed: FAIL"), std::string::npos);
    const std::string error = "\"error\": \"" + what + "\"";
    const auto first = r.json.find(error);
    ASSERT_NE(first, std::string::npos) << r.json;
    EXPECT_NE(r.json.find(error, first + 1), std::string::npos)
        << "both trials carry the run's error";
  }
}

// ---------------------------------------------------------------------------
// TraceBuffer wraparound / drop accounting
// ---------------------------------------------------------------------------

meas::TraceRecord rec(std::uint64_t stamp) {
  meas::TraceRecord r;
  r.timestamp = static_cast<sim::TimeNs>(stamp);
  r.type = meas::TraceType::Atomic;
  r.value = stamp;
  return r;
}

TEST(TraceBufferEdges, CapacityZeroRejected) {
  EXPECT_THROW(meas::TraceBuffer(0), std::invalid_argument);
}

TEST(TraceBufferEdges, ExactFillDropsNothing) {
  meas::TraceBuffer buf(4);
  for (std::uint64_t i = 1; i <= 4; ++i) buf.push(rec(i));
  std::vector<meas::TraceRecord> out;
  const meas::TraceDrain d = buf.read_from(0, out);
  EXPECT_EQ(d.loss.dropped, 0u);
  ASSERT_EQ(out.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].value, i + 1);
  EXPECT_EQ(d.next_seq, 4u);
  EXPECT_EQ(buf.total_pushed(), 4u);
  out.clear();
  buf.read_from(d.next_seq, out);
  EXPECT_TRUE(out.empty()) << "nothing left past the returned cursor";
}

TEST(TraceBufferEdges, OverflowOverwritesOldestAndCountsDrops) {
  meas::TraceBuffer buf(4);
  for (std::uint64_t i = 1; i <= 6; ++i) buf.push(rec(i));
  EXPECT_EQ(buf.oldest_seq(), 2u) << "ring never holds more than capacity";
  EXPECT_EQ(buf.total_pushed(), 6u);
  std::vector<meas::TraceRecord> out;
  const meas::TraceDrain d = buf.read_from(0, out);
  EXPECT_EQ(d.loss.dropped, 2u);
  ASSERT_EQ(out.size(), 4u);
  // The two oldest records (1, 2) were overwritten; the survivors read
  // oldest-first.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].value, i + 3);
  EXPECT_EQ(buf.read_from(d.next_seq, out).loss.dropped, 0u)
      << "loss is reported once per cursor";
}

TEST(TraceBufferEdges, CapacityOneKeepsOnlyTheNewest) {
  meas::TraceBuffer buf(1);
  buf.push(rec(1));
  buf.push(rec(2));
  buf.push(rec(3));
  std::vector<meas::TraceRecord> out;
  EXPECT_EQ(buf.read_from(0, out).loss.dropped, 2u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 3u);
}

TEST(TraceBufferEdges, DrainAppendsAndBufferIsReusable) {
  meas::TraceBuffer buf(2);
  buf.push(rec(1));
  std::vector<meas::TraceRecord> out;
  out.push_back(rec(99));
  const meas::TraceDrain d = buf.read_from(0, out);
  EXPECT_EQ(d.loss.dropped, 0u);
  ASSERT_EQ(out.size(), 2u) << "a read appends, it does not clear";
  EXPECT_EQ(out[1].value, 1u);

  // Later pushes wrap correctly past the reader's cursor.
  for (std::uint64_t i = 10; i <= 12; ++i) buf.push(rec(i));
  out.clear();
  EXPECT_EQ(buf.read_from(d.next_seq, out).loss.dropped, 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value, 11u);
  EXPECT_EQ(out[1].value, 12u);
  EXPECT_EQ(buf.total_pushed(), 4u);
}

}  // namespace
}  // namespace ktau::expt
