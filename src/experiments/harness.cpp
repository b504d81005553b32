#include "experiments/harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>

#include "analysis/matrixdoc.hpp"
#include "analysis/report.hpp"
#include "sim/rng.hpp"

namespace ktau::expt {

namespace {

std::vector<ScenarioSpec>& registry() {
  static std::vector<ScenarioSpec> scenarios;
  return scenarios;
}

/// Salt for (user seed, repeat): 0 = "historical seeds" only when the user
/// gave no seed and this is the first repetition.
std::uint64_t salt_for(bool seed_set, std::uint64_t user_seed, int repeat) {
  if (!seed_set && repeat == 0) return 0;
  std::uint64_t s =
      user_seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(repeat + 1));
  std::uint64_t salt = sim::splitmix64(s);
  if (salt == 0) salt = 1;
  return salt;
}

bool matches_filter(const std::string& name,
                    const std::vector<std::string>& filter) {
  if (filter.empty()) return true;
  for (const auto& f : filter) {
    if (name == f || name.find(f) != std::string::npos) return true;
  }
  return false;
}

bool parse_positive_double(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  // inf / 1e400 would reach static_cast<int>(n * scale) in scenario sizing.
  if (end == s || *end != '\0' || !(v > 0) || !std::isfinite(v)) return false;
  out = v;
  return true;
}

bool parse_positive_int(const char* s, int& out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < 1 || v > 1'000'000) return false;
  out = static_cast<int>(v);
  return true;
}

void split_csv(const std::string& csv, std::vector<std::string>& out) {
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
}

/// One (scenario, repeat) execution unit.
struct Unit {
  const ScenarioSpec* spec = nullptr;
  ScenarioParams params;
  std::vector<TrialSpec> trials;
  std::vector<TrialResult> results;
  std::vector<std::string> errors;  // empty string = trial succeeded
  std::vector<GateResult> gates;    // filled during reporting
};

void print_unit_header(std::ostream& out, const Unit& unit, int total_repeats) {
  out << "==========================================================\n";
  out << unit.spec->name << " — " << unit.spec->title << "\n";
  char line[160];
  std::snprintf(line, sizeof(line),
                "workload scale: %.2f of paper-length runs", unit.params.scale);
  out << line << "\n";
  if (total_repeats > 1) {
    std::snprintf(line, sizeof(line), "repeat %d/%d (seed salt 0x%llx)",
                  unit.params.repeat + 1, total_repeats,
                  static_cast<unsigned long long>(unit.params.salt));
    out << line << "\n";
  }
  out << "==========================================================\n";
}

/// Converts the executed units into the shared ktau-matrix-v1 document
/// model (analysis/matrixdoc.hpp) — the ONE schema `matrixctl` reads back
/// and re-emits, so the harness and the merge tool can never disagree on a
/// byte.  Units arrive grouped by scenario in canonical order; sharded runs
/// (`--shard i/N`, N > 1) are stamped so merge can prove the partition
/// complete; the stamp is absent from unsharded documents, keeping them
/// byte-identical to merged ones.
analysis::MatrixDoc build_matrix_doc(const std::vector<Unit>& units,
                                     int trials_per_scenario, int failures,
                                     const MatrixOptions& opt,
                                     std::size_t matched_units) {
  analysis::MatrixDoc doc;
  doc.trials_per_scenario = trials_per_scenario;
  doc.failures = failures;
  if (opt.shard_count > 1) {
    doc.shard = analysis::ShardStamp{opt.shard_index, opt.shard_count,
                                     static_cast<std::uint64_t>(matched_units)};
  }
  for (std::size_t i = 0; i < units.size();) {
    const ScenarioSpec* spec = units[i].spec;
    analysis::ScenarioEntry sc;
    sc.name = spec->name;
    sc.title = spec->title;
    sc.scale = units[i].params.scale;
    for (; i < units.size() && units[i].spec == spec; ++i) {
      const Unit& u = units[i];
      analysis::RepeatEntry rep;
      rep.repeat = u.params.repeat;
      rep.salt = u.params.salt;
      for (std::size_t t = 0; t < u.trials.size(); ++t) {
        analysis::TrialEntry tr;
        tr.name = u.trials[t].name;
        if (!u.errors[t].empty()) {
          tr.failed = true;
          tr.error = u.errors[t];
        } else {
          tr.metrics = u.results[t].metrics;
        }
        rep.trials.push_back(std::move(tr));
      }
      for (const auto& g : u.gates) rep.gates.push_back({g.name, g.pass});
      sc.repeats.push_back(std::move(rep));
    }
    doc.scenarios.push_back(std::move(sc));
  }
  return doc;
}

/// Writes the --json document; a failed write (including a failed final
/// flush) is reported on `info` and returned as false.
bool write_doc(const std::string& path, const analysis::MatrixDoc& doc,
               std::ostream& info) {
  if (!analysis::write_matrix_doc_file(path, doc)) {
    info << "harness: cannot write " << path << "\n";
    return false;
  }
  info << "wrote " << path << "\n";
  return true;
}

}  // namespace

std::uint64_t ScenarioParams::seed(std::uint64_t historical) const {
  if (salt == 0) return historical;
  std::uint64_t s = historical ^ salt;
  return sim::splitmix64(s);
}

std::shared_ptr<const ChibaRunResult> ScenarioParams::chiba_run(
    const ChibaRunConfig& cfg) const {
  if (chiba_runs != nullptr) return chiba_runs->run(cfg);
  return std::make_shared<const ChibaRunResult>(run_chiba(cfg));
}

std::shared_ptr<const ChibaRunResult> ChibaRunStore::run(
    const ChibaRunConfig& cfg) {
  ChibaRunConfig key = cfg;
  key.stack = cfg.stack.value_or(default_stack_model());
  key.sim_threads = 0;
  std::optional<std::promise<std::shared_ptr<const ChibaRunResult>>> owner;
  Shared shared;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = std::find_if(runs_.begin(), runs_.end(),
                                 [&](const auto& e) { return e.first == key; });
    if (it != runs_.end()) {
      shared = it->second;
    } else {
      shared = owner.emplace().get_future().share();
      runs_.emplace_back(std::move(key), shared);
    }
  }
  if (owner) {
    try {
      owner->set_value(std::make_shared<const ChibaRunResult>(run_chiba(cfg)));
    } catch (...) {
      owner->set_exception(std::current_exception());
    }
  }
  return shared.get();
}

std::size_t ChibaRunStore::simulations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return runs_.size();
}

std::ostream& Report::info() { return info_ != nullptr ? *info_ : std::cerr; }

void Report::printf(const char* fmt, ...) {
  // Format into a stack buffer first; only longer lines take a second,
  // exactly sized pass.  (A size-0 vsnprintf probe trips GCC 12's
  // format-truncation warning at -O3.)
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  char line[512];
  const int len = std::vsnprintf(line, sizeof(line), fmt, args);
  va_end(args);
  if (len >= 0 && static_cast<std::size_t>(len) < sizeof(line)) {
    out_.write(line, len);
  } else if (len >= 0) {
    std::string buf(static_cast<std::size_t>(len) + 1, '\0');
    std::vsnprintf(buf.data(), buf.size(), fmt, copy);
    buf.resize(static_cast<std::size_t>(len));
    out_ << buf;
  }
  va_end(copy);
}

bool Report::gate(const std::string& what, bool ok) {
  out_ << what << ": " << (ok ? "PASS" : "FAIL") << "\n";
  gates_.push_back({what, ok});
  return ok;
}

int Report::failures() const {
  int n = 0;
  for (const auto& g : gates_) n += g.pass ? 0 : 1;
  return n;
}

bool register_scenario(ScenarioSpec spec) {
  for (const auto& existing : registry()) {
    if (existing.name == spec.name) {
      std::fprintf(stderr, "harness: duplicate scenario name '%s' ignored\n",
                   spec.name.c_str());
      return false;
    }
  }
  registry().push_back(std::move(spec));
  return true;
}

std::vector<const ScenarioSpec*> scenarios() {
  std::vector<const ScenarioSpec*> out;
  out.reserve(registry().size());
  for (const auto& s : registry()) out.push_back(&s);
  std::sort(out.begin(), out.end(),
            [](const ScenarioSpec* a, const ScenarioSpec* b) {
              return a->order != b->order ? a->order < b->order
                                          : a->name < b->name;
            });
  return out;
}

const ScenarioSpec* find_scenario(std::string_view name) {
  for (const auto& s : registry()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

bool parse_matrix_args(int argc, char** argv, MatrixOptions& opt,
                       bool& want_list, bool& want_help, std::string& error) {
  want_list = false;
  want_help = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        error = std::string(flag) + " requires a value";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      want_help = true;
    } else if (arg == "--list") {
      want_list = true;
    } else if (arg == "--scale") {
      const char* v = next_value("--scale");
      if (v == nullptr || !parse_positive_double(v, opt.scale)) {
        if (error.empty()) error = "--scale expects a finite positive number";
        return false;
      }
    } else if (arg == "--trials") {
      const char* v = next_value("--trials");
      if (v == nullptr || !parse_positive_int(v, opt.trials)) {
        if (error.empty()) error = "--trials expects a positive integer";
        return false;
      }
    } else if (arg == "--jobs") {
      const char* v = next_value("--jobs");
      if (v == nullptr || !parse_positive_int(v, opt.jobs)) {
        if (error.empty()) error = "--jobs expects a positive integer";
        return false;
      }
    } else if (arg == "--sim-threads") {
      const char* v = next_value("--sim-threads");
      if (v == nullptr || !parse_positive_int(v, opt.sim_threads)) {
        if (error.empty()) error = "--sim-threads expects a positive integer";
        return false;
      }
    } else if (arg == "--shard") {
      const char* v = next_value("--shard");
      if (v == nullptr) return false;
      int idx = 0, cnt = 0;
      char slash = '\0', tail = '\0';
      if (std::sscanf(v, "%d%c%d%c", &idx, &slash, &cnt, &tail) != 3 ||
          slash != '/' || idx < 0 || cnt < 1 || idx >= cnt) {
        error = "--shard expects i/N with 0 <= i < N";
        return false;
      }
      opt.shard_index = idx;
      opt.shard_count = cnt;
    } else if (arg == "--stack") {
      const char* v = next_value("--stack");
      if (v == nullptr) return false;
      if (!knet::parse_stack_kind(v, opt.stack)) {
        error = "--stack expects one of: fixed, reno, rack";
        return false;
      }
    } else if (arg == "--seed") {
      const char* v = next_value("--seed");
      if (v == nullptr) return false;
      // strtoull would accept "-1" (negated) and saturate on overflow.
      char* end = nullptr;
      errno = 0;
      const unsigned long long seed = std::strtoull(v, &end, 0);
      if (!std::isdigit(static_cast<unsigned char>(v[0])) || *end != '\0' ||
          errno == ERANGE) {
        error = "--seed expects an unsigned 64-bit integer";
        return false;
      }
      opt.seed = seed;
      opt.seed_set = true;
    } else if (arg == "--json") {
      const char* v = next_value("--json");
      if (v == nullptr) return false;
      opt.json_path = v;
    } else if (arg == "--filter") {
      const char* v = next_value("--filter");
      if (v == nullptr) return false;
      // An empty list would silently select every scenario.
      const std::size_t before = opt.filter.size();
      split_csv(v, opt.filter);
      if (opt.filter.size() == before) {
        error = "--filter expects a comma-separated list of scenario names";
        return false;
      }
    } else {
      error = "unknown argument '" + arg +
              "'; every option is a flag, e.g. --scale 0.1";
      return false;
    }
  }
  return true;
}

void list_scenarios(std::ostream& out) {
  out << "registered scenarios (canonical order):\n";
  for (const ScenarioSpec* s : scenarios()) {
    char line[240];
    std::snprintf(line, sizeof(line), "  %-22s default scale %.2f  %s\n",
                  s->name.c_str(), s->default_scale, s->title.c_str());
    out << line;
  }
}

int run_matrix(const MatrixOptions& opt, std::ostream& out,
               std::ostream& info) {
  // Install the simulation-thread and stack-model defaults before any trial
  // closure runs so every ChibaRunConfig built by the scenarios inherits
  // them.  Set once, up front, from the single-threaded caller.
  set_default_sim_threads(opt.sim_threads);
  set_default_stack_model(opt.stack);
  // Declared before the units so it outlives every trial closure.
  ChibaRunStore chiba_runs;

  // ---- select + decompose -------------------------------------------------
  std::vector<Unit> units;
  std::size_t matched = 0;  // filter-matched units, pre-shard
  for (const ScenarioSpec* spec : scenarios()) {
    if (!matches_filter(spec->name, opt.filter)) continue;
    for (int repeat = 0; repeat < opt.trials; ++repeat) {
      // Shard over the canonical unit ordering so `--shard i/N` for
      // i = 0..N-1 partitions exactly the unit list a single run executes.
      const std::size_t ordinal = matched++;
      if (opt.shard_count > 1 &&
          ordinal % static_cast<std::size_t>(opt.shard_count) !=
              static_cast<std::size_t>(opt.shard_index)) {
        continue;
      }
      Unit u;
      u.spec = spec;
      u.params.scale = opt.scale > 0 ? opt.scale : spec->default_scale;
      u.params.repeat = repeat;
      u.params.salt = salt_for(opt.seed_set, opt.seed, repeat);
      u.params.stack = opt.stack;
      u.params.chiba_runs = &chiba_runs;
      u.trials = spec->trials(u.params);
      u.results.resize(u.trials.size());
      u.errors.resize(u.trials.size());
      units.push_back(std::move(u));
    }
  }
  if (units.empty()) {
    if (matched > 0) {
      // The filter matched, the shard is just empty (N exceeds the unit
      // count): a valid partition outcome, not an error.  Still write the
      // (empty, stamped) document when asked — `matrixctl merge` needs
      // every shard of a partition to present its stamp.
      info << "harness: shard " << opt.shard_index << "/" << opt.shard_count
           << " selects none of the " << matched << " unit(s)\n";
      if (!opt.json_path.empty() &&
          !write_doc(opt.json_path,
                     build_matrix_doc({}, opt.trials, 0, opt, matched),
                     info)) {
        return 1;
      }
      return 0;
    }
    info << "harness: no scenario matches the filter (try --list)\n";
    return 1;
  }

  // ---- execute trials on the worker pool ----------------------------------
  struct Task {
    std::size_t unit;
    std::size_t trial;
  };
  std::vector<Task> tasks;
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (std::size_t t = 0; t < units[u].trials.size(); ++t) {
      tasks.push_back({u, t});
    }
  }

  std::atomic<std::size_t> next{0};
  std::mutex info_mutex;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) return;
      Unit& u = units[tasks[i].unit];
      const std::size_t t = tasks[i].trial;
      const auto t0 = std::chrono::steady_clock::now();
      try {
        u.results[t] = u.trials[t].run();
      } catch (const std::exception& e) {
        u.errors[t] = e.what();
      } catch (...) {
        u.errors[t] = "unknown exception";
      }
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      std::lock_guard<std::mutex> lock(info_mutex);
      info << "  [" << u.spec->name << "/" << u.trials[t].name << " done in "
           << static_cast<long long>(ms) << " ms"
           << (u.errors[t].empty() ? "" : " — ERROR: " + u.errors[t]) << "]\n";
    }
  };

  const int jobs = std::max(
      1, std::min<int>(opt.jobs, static_cast<int>(tasks.size())));
  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  // ---- report sequentially in canonical order -----------------------------
  int failures = 0;
  std::vector<analysis::GateLine> gate_lines;
  for (Unit& u : units) {
    print_unit_header(out, u, opt.trials);
    Report rep(out, &info);
    bool all_ok = true;
    for (std::size_t t = 0; t < u.trials.size(); ++t) {
      if (!u.errors[t].empty()) {
        all_ok = false;
        rep.printf("trial %s failed: %s\n", u.trials[t].name.c_str(),
                   u.errors[t].c_str());
      }
    }
    if (all_ok) {
      u.spec->report(rep, u.params, u.results);
    } else {
      rep.gate("all trials completed", false);
    }
    u.gates = rep.gates();
    failures += rep.failures();
    for (const auto& g : u.gates) {
      gate_lines.push_back({u.spec->name, g.name, g.pass});
    }
    out << "\n";
  }

  analysis::render_gate_summary(out, gate_lines);

  // ---- machine-readable document ------------------------------------------
  if (!opt.json_path.empty() &&
      !write_doc(opt.json_path,
                 build_matrix_doc(units, opt.trials, failures, opt, matched),
                 info)) {
    ++failures;
  }
  return failures;
}

int harness_main(int argc, char** argv) {
  MatrixOptions opt;
  bool want_list = false, want_help = false;
  std::string error;
  if (!parse_matrix_args(argc, argv, opt, want_list, want_help, error)) {
    std::fprintf(stderr, "error: %s (see --help)\n", error.c_str());
    return 2;
  }
  if (want_help) {
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Runs registered experiment scenarios through the shared harness.\n"
        "\n"
        "  --scale X     workload scale as a fraction of the paper-length\n"
        "                runs (default %.2f = expt::kDefaultScale, unless\n"
        "                the scenario declares another — see --list)\n"
        "  --trials N    repetitions per scenario with derived seeds\n"
        "                (default 1; repeat 0 keeps historical seeds)\n"
        "  --jobs N      worker threads for trial execution (default 1;\n"
        "                output is byte-identical for any N)\n"
        "  --sim-threads N\n"
        "                worker threads *inside* each simulation (the\n"
        "                conservative parallel scheduler's shard count;\n"
        "                default 1; output is byte-identical for any N)\n"
        "  --stack M     TCP stack model: fixed (default, historical\n"
        "                behaviour), reno, or rack (DESIGN.md §13).  Unlike\n"
        "                the knobs above this changes simulation results.\n"
        "  --shard i/N   run only scenario units with ordinal i mod N\n"
        "                (canonical order, after --filter/--trials): a\n"
        "                deterministic partition for spreading the matrix\n"
        "                over machines.  0/1 (default) selects everything\n"
        "  --seed S      base seed override (decorrelates all trials)\n"
        "  --json PATH   write the machine-readable result document\n"
        "  --filter A,B  run only scenarios matching a name/substring\n"
        "  --list        list registered scenarios and exit\n"
        "  --help        this text\n"
        "\n"
        "Exit status is the number of failed gates.\n",
        argv[0], kDefaultScale);
    return 0;
  }
  if (want_list) {
    list_scenarios(std::cout);
    return 0;
  }
  const int failures = run_matrix(opt, std::cout, std::cerr);
  return failures > 125 ? 125 : failures;
}

}  // namespace ktau::expt
