// The experiment spine: one declarative scenario registry + one runner.
//
// Every paper table/figure reproduction (and every ablation / infrastructure
// bench) is a `ScenarioSpec`: a name, a default scale, a function that
// decomposes the scenario into independent `(config, seed)` trials, and a
// report function that renders the human-readable output and emits PASS/FAIL
// gates.  The `bench/bench_*.cpp` sources are registrations against this
// spine; `bench_matrix` links them all and is the one runner (the whole
// paper matrix, or `--filter NAME` for one scenario).
//
// Determinism under parallelism (DESIGN.md §9):
//   - trial closures are pure with respect to shared state — each builds its
//     own Cluster/Engine/Rng instance tree and touches nothing global;
//   - workers only *execute* trials; results commit into a slot vector
//     indexed by canonical trial order, and all rendering/gating/JSON runs
//     sequentially afterwards in that order;
//   - nothing host-dependent (wall clock, thread ids, job count) is allowed
//     into stdout or the JSON document; host timings go to stderr.
// Hence `--jobs 8` output is byte-identical to `--jobs 1`.
//
// Trials that need the same Chiba simulation share it: each run_matrix call
// owns a ChibaRunStore that simulates every distinct configuration once
// (ScenarioParams::chiba_run); the trials still build their own metrics
// and payloads from the shared, immutable result.
#pragma once

#include <any>
#include <cstdarg>
#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "experiments/chiba.hpp"
#include "sim/stats.hpp"

namespace ktau::expt {

/// The single default workload scale (fraction of the paper-length runs)
/// used when neither `--scale` nor a scenario override is given.  This is
/// the constant CLAUDE.md / EXPERIMENTS.md quote; keep them in sync.
inline constexpr double kDefaultScale = 0.1;

/// The Chiba simulations of one run_matrix call, each distinct
/// configuration simulated once (DESIGN.md §9).  The key is the whole
/// ChibaRunConfig compared with `==`, with the stack model resolved through
/// default_stack_model() and sim_threads ignored (it never changes output).
/// The first trial to ask runs the simulation on its own worker; one that
/// asks while it runs waits for it.  A run that throws rethrows the same
/// exception into every trial sharing it.  Thread-safe.
class ChibaRunStore {
 public:
  ChibaRunStore() = default;
  ChibaRunStore(const ChibaRunStore&) = delete;  // trials hold its address
  ChibaRunStore& operator=(const ChibaRunStore&) = delete;

  std::shared_ptr<const ChibaRunResult> run(const ChibaRunConfig& cfg);
  /// Distinct simulations started so far.
  std::size_t simulations() const;

 private:
  using Shared = std::shared_future<std::shared_ptr<const ChibaRunResult>>;
  mutable std::mutex mutex_;
  std::vector<std::pair<ChibaRunConfig, Shared>> runs_;  // few; linear scan
};

/// Parameters of one scenario repetition.
struct ScenarioParams {
  double scale = kDefaultScale;
  /// Repetition index (0-based); `--trials N` runs each scenario N times.
  int repeat = 0;
  /// Seed salt for this repetition.  0 means "historical seeds": repeat 0
  /// of a run without `--seed` reproduces each scenario's long-standing
  /// numbers exactly.  Any other value decorrelates the trial seeds.
  std::uint64_t salt = 0;
  /// TCP stack model (`--stack`; DESIGN.md §13).  Unlike `--sim-threads`,
  /// which reaches runs through set_default_sim_threads, this DOES change
  /// simulation results; the default, Fixed, reproduces the historical
  /// behaviour byte for byte.  Scenarios that sweep models themselves
  /// (congestion) ignore it and set ChibaRunConfig::stack explicitly per
  /// trial.
  knet::StackKind stack = knet::StackKind::Fixed;
  /// The calling run_matrix's store; null (tests, direct callers) makes
  /// chiba_run simulate every request.  Trials may capture it: it lives
  /// until run_matrix returns.
  ChibaRunStore* chiba_runs = nullptr;

  /// Derives the seed a trial should use from the seed it historically
  /// used.  Pure function of (salt, historical) — documented in DESIGN.md
  /// §9 and pinned by tests.
  std::uint64_t seed(std::uint64_t historical) const;

  /// The result of run_chiba(cfg), shared through `chiba_runs` when set.
  std::shared_ptr<const ChibaRunResult> chiba_run(
      const ChibaRunConfig& cfg) const;
};

/// What one trial hands back: named metrics for the JSON document (in
/// emission order) plus an arbitrary scenario-private payload for report().
struct TrialResult {
  std::vector<std::pair<std::string, double>> metrics;
  std::any payload;
};

/// Wraps a payload already in immutable shared storage (e.g. a stored
/// Chiba run) together with metrics.
template <typename T>
TrialResult trial_result(std::shared_ptr<const T> payload,
                         std::vector<std::pair<std::string, double>> metrics =
                             {}) {
  TrialResult r;
  r.metrics = std::move(metrics);
  r.payload = std::move(payload);
  return r;
}

/// Wraps a payload (moved into shared storage) together with metrics.
template <typename T>
TrialResult trial_result(T payload,
                         std::vector<std::pair<std::string, double>> metrics =
                             {}) {
  return trial_result(std::make_shared<const T>(std::move(payload)),
                      std::move(metrics));
}

/// Recovers a payload stored by trial_result<T>.
template <typename T>
const T& payload(const TrialResult& r) {
  return *std::any_cast<const std::shared_ptr<const T>&>(r.payload);
}

/// One independent unit of work.  `run` must be thread-safe by isolation:
/// it may not touch any mutable state shared with other trials (whole sim
/// instances are built inside the closure; a shared Chiba run comes from
/// ScenarioParams::chiba_run), and it may not print.
struct TrialSpec {
  std::string name;  // canonical label, unique within the scenario
  std::function<TrialResult()> run;
};

struct GateResult {
  std::string name;
  bool pass = false;
};

/// The one code path for scenario output: deterministic text plus PASS/FAIL
/// gate lines.  Everything written here must be a pure function of the
/// trial results (no host timings — those belong on stderr).
class Report {
 public:
  explicit Report(std::ostream& out, std::ostream* info = nullptr)
      : out_(out), info_(info) {}

  std::ostream& out() { return out_; }

  /// Non-deterministic side channel (host timings and the like).  Defaults
  /// to stderr; never part of the byte-identity contract.
  std::ostream& info();

  /// printf-style write to the deterministic output stream.
  void printf(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  /// Emits "<what>: PASS|FAIL\n" and records the outcome.  Returns ok.
  bool gate(const std::string& what, bool ok);

  const std::vector<GateResult>& gates() const { return gates_; }
  int failures() const;

 private:
  std::ostream& out_;
  std::ostream* info_ = nullptr;
  std::vector<GateResult> gates_;
};

/// A declarative scenario: everything the runner needs to execute and
/// report one paper artifact (or ablation) at any scale, trial count, and
/// parallelism.
struct ScenarioSpec {
  std::string name;   // CLI key, e.g. "table2"
  std::string title;  // header line, e.g. the paper table caption
  /// Scale used when --scale is absent.  Most scenarios use kDefaultScale;
  /// a few override it where the historical binary ran a different length
  /// (the override shows up in --list).
  double default_scale = kDefaultScale;
  /// Position in the canonical matrix order (paper artifact order).
  int order = 1000;
  /// Decomposes the scenario into independent trials for the given params.
  std::function<std::vector<TrialSpec>(const ScenarioParams&)> trials;
  /// Renders output + gates from the results, which arrive in the exact
  /// order `trials` returned them, regardless of --jobs.
  std::function<void(Report&, const ScenarioParams&,
                     const std::vector<TrialResult>&)>
      report;
};

/// Registers a scenario (static-init friendly; returns true).  Duplicate
/// names are rejected with a diagnostic on stderr.
bool register_scenario(ScenarioSpec spec);

/// All registered scenarios in canonical (order, name) order.
std::vector<const ScenarioSpec*> scenarios();

/// Looks up a scenario by exact name; nullptr if absent.
const ScenarioSpec* find_scenario(std::string_view name);

/// Runner options (see --help for the CLI mapping).
struct MatrixOptions {
  std::vector<std::string> filter;  // empty = all; exact name or substring
  double scale = 0;                 // 0 = per-scenario default
  int trials = 1;                   // repetitions per scenario
  int jobs = 1;                     // worker threads for trial execution
  int sim_threads = 1;              // event-queue shards inside each trial
  knet::StackKind stack = knet::StackKind::Fixed;  // --stack model
  std::uint64_t seed = 0;           // user seed; meaningful iff seed_set
  bool seed_set = false;
  std::string json_path;            // empty = no JSON emission
  /// `--shard i/N`: run only the scenario units whose ordinal (canonical
  /// order, after --filter/--trials expansion) is congruent to i mod N —
  /// a deterministic partition for spreading a matrix over machines.  The
  /// default 0/1 selects everything and is byte-identical to no flag.
  int shard_index = 0;
  int shard_count = 1;
};

/// Parses the runner CLI into `opt`.  Returns false and fills `error` on
/// bad input: a positional argument (the scale is --scale X) or a
/// non-finite number.  --list and --help are returned via the flags.
bool parse_matrix_args(int argc, char** argv, MatrixOptions& opt,
                       bool& want_list, bool& want_help, std::string& error);

/// Executes the selected scenarios: trials on a worker pool of `jobs`
/// threads, reports sequentially in canonical order to `out`, progress and
/// host timings to `info`.  Returns the total number of failed gates
/// (also counting trials that threw, and a --json document that could not
/// be written).
int run_matrix(const MatrixOptions& opt, std::ostream& out,
               std::ostream& info);

/// Writes the --list output (canonical order, default scales, titles).
void list_scenarios(std::ostream& out);

/// The runner main (bench_matrix): parses argv, runs the matrix, returns
/// the failure count as exit status (clamped to 125; 2 on bad arguments).
int harness_main(int argc, char** argv);

// ---------------------------------------------------------------------------
// Shared metric helpers (the former bench_util.hpp, folded into the spine).
// ---------------------------------------------------------------------------

/// Per-rank metric extraction over a ChibaRunResult.
template <typename F>
std::vector<double> metric_of(const ChibaRunResult& run, F get) {
  std::vector<double> out;
  out.reserve(run.ranks.size());
  for (const auto& rs : run.ranks) out.push_back(get(rs));
  return out;
}

inline sim::Cdf cdf_of(const std::vector<double>& values) {
  return sim::Cdf(values);
}

}  // namespace ktau::expt
