// perfbench_driver: the in-process half of the host-performance benchmark
// (run.py is the other half).  One thread, one process, closed loop; every
// configuration pins sim_threads = 1 and its TCP stack explicitly.
//
//   perfbench_driver --mode setup     --workload W --seed N
//   perfbench_driver --mode timed     --workload W --seed N --seconds S
//                    [--min-ops K]
//   perfbench_driver --mode traced    --workload W --seed N
//   perfbench_driver --mode roundtrip --doc PATH
//   perfbench_driver --mode reference
//   perfbench_driver --mode selftest
//
// Workloads: lu_anomaly, lu_base, serve_mix, and matrix_key (the 64x2
// Anomaly LU run that bench_matrix's fig3/fig4/fig7 scenarios each rebuild,
// with the seed the harness derives from its --seed).  A run's inputs are
// the seeds input_seed(N, j); input seed 0 selects the historical seeds
// (LU 7, serve 17, bench_matrix without --seed).  Every mode prints JSON
// lines on stdout.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/matrixdoc.hpp"
#include "experiments/chiba.hpp"
#include "experiments/harness.hpp"
#include "experiments/serve.hpp"
#include "phased.hpp"
#include "reference.hpp"
#include "sim/rng.hpp"

namespace {

using namespace ktau;
using perfbench::LayerCounts;
using Clock = std::chrono::steady_clock;
using Fields = std::vector<std::pair<std::string, double>>;

// -- workload sizes and pinned headline intervals ---------------------------
// The intervals hold for every seed; they catch a broken simulation, not
// drift (the exact fingerprints are reported as per-layer counts).
constexpr double kLuAnomalyScale = 0.01;
constexpr double kLuBaseScale = 0.1;
constexpr double kServeScale = 8;
constexpr double kMatrixScale = 0.01;
constexpr int kInputs = 7;  // inputs a timed run cycles through

struct Interval {
  double lo, hi;
  bool holds(double v) const { return v >= lo && v <= hi; }
};
constexpr Interval kLuAnomalyExec{5.3, 7.5};
constexpr Interval kLuBaseExec{42.0, 58.0};
// storm (open, Fixed), loss (open, Reno), closed (4 CPUs)
constexpr Interval kServeExec[3] = {{27.0, 38.0}, {27.0, 38.0}, {4.7, 6.6}};

constexpr int kReferenceReps = 3;  // reference loops before each operation
// A fresh process's first loops run on a core waking from idle: the
// standalone mode (between bench_matrix processes) takes the best of more.
constexpr int kReferenceModeReps = 15;

double best_reference(int reps) {
  double best = perfbench::reference_loop_seconds();
  for (int i = 1; i < reps; ++i) {
    best = std::min(best, perfbench::reference_loop_seconds());
  }
  return best;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_json(const Fields& fields, const std::string& extra = "") {
  std::string line = "{";
  for (const auto& [k, v] : fields) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (line.size() > 1) line += ", ";
    line += "\"" + k + "\": " + buf;
  }
  if (!extra.empty()) line += (line.size() > 1 ? ", " : "") + extra;
  line += "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string json_str(const std::string& key, const std::string& value) {
  std::string esc;
  for (char c : value) {
    if (c == '"' || c == '\\') esc += '\\';
    esc += c;
  }
  return "\"" + key + "\": \"" + esc + "\"";
}

// -- configurations -----------------------------------------------------------

/// Seed of input j of a run with benchmark seed `seed`.
std::uint64_t input_seed(std::uint64_t seed, int j) {
  return seed * 16 + static_cast<std::uint64_t>(j);
}

expt::ChibaRunConfig lu_config(std::uint64_t seed, double scale,
                               expt::PerturbMode mode) {
  expt::ChibaRunConfig cfg;
  cfg.config = expt::ChibaConfig::C64x2Anomaly;
  cfg.workload = expt::Workload::LU;
  cfg.perturb = mode;
  cfg.seed = seed == 0 ? 7 : seed;
  cfg.scale = scale;
  cfg.sim_threads = 1;
  cfg.stack = knet::StackKind::Fixed;
  return cfg;
}

/// The seed bench_matrix gives its fig3/fig4/fig7 trial for `--seed seed`
/// (no --seed flag when seed == 0): the harness salt of repeat 0 applied to
/// the historical seed 7.
std::uint64_t matrix_key_seed(std::uint64_t seed) {
  expt::ScenarioParams p;
  if (seed != 0) {
    std::uint64_t s = seed ^ 0x9E3779B97F4A7C15ULL;
    p.salt = sim::splitmix64(s);
    if (p.salt == 0) p.salt = 1;
  }
  return p.seed(7);
}

/// The bench_matrix arguments whose fig3/fig4/fig7 trials each repeat the
/// matrix_key simulation of benchmark seed `seed`, as a JSON field: run.py
/// builds its bench_matrix command from them.
std::string bench_matrix_args(std::uint64_t seed) {
  char scale[32];
  std::snprintf(scale, sizeof(scale), "%g", kMatrixScale);
  std::string args =
      "\"bench_matrix_args\": [\"--scale\", \"" + std::string(scale) + "\"";
  const std::uint64_t s = input_seed(seed, 0);
  if (s != 0) args += ", \"--seed\", \"" + std::to_string(s) + "\"";
  return args + "]";
}

std::vector<expt::ServeConfig> serve_mix_configs(std::uint64_t seed,
                                                 double scale) {
  expt::ServeConfig open;
  open.mode = expt::ServeMode::Open;
  open.server_cpus = 2;
  open.scale = scale;
  open.seed = seed == 0 ? 17 : seed;
  open.sim_threads = 1;
  open.stack = knet::StackKind::Fixed;

  expt::ServeConfig storm = open;
  storm.irq_storm = true;
  expt::ServeConfig loss = open;
  loss.stack = knet::StackKind::Reno;
  loss.drop_prob = 0.01;
  expt::ServeConfig closed = open;
  closed.mode = expt::ServeMode::Closed;
  closed.server_cpus = 4;
  return {storm, loss, closed};
}

struct Options {
  std::string mode, workload, doc;
  std::uint64_t seed = 0;
  double seconds = 10;
  int min_ops = 3;
};

// -- one timed operation ------------------------------------------------------

struct OpResult {
  std::uint64_t events = 0;
  Fields headline;   // simulated results, printed with the timings
  std::string fail;  // empty = outputs checked and correct
};

OpResult run_lu_op(const expt::ChibaRunConfig& cfg, Interval pinned) {
  const auto r = expt::run_chiba(cfg);
  OpResult op{r.engine_events, {{"exec_sec", r.exec_sec}}, ""};
  if (!pinned.holds(r.exec_sec)) op.fail = "exec_sec outside pinned interval";
  if (r.engine_events == 0) op.fail = "no engine events";
  return op;
}

OpResult run_serve_op(const std::vector<expt::ServeConfig>& cfgs) {
  OpResult op;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const auto r = expt::run_serve(cfgs[i]);
    op.events += r.engine_events;
    op.headline.emplace_back("exec_sec_" + std::to_string(i), r.exec_sec);
    if (r.requests_completed != r.requests_offered || r.requests_offered == 0) {
      op.fail = "serve: requests lost";
    } else if (!kServeExec[i].holds(r.exec_sec)) {
      op.fail = "serve: exec_sec outside pinned interval";
    } else if (cfgs[i].irq_storm && r.fault_totals.storm_irqs == 0) {
      op.fail = "serve: storm injected no IRQs";
    } else if (cfgs[i].drop_prob > 0 && r.net.retransmits == 0) {
      op.fail = "serve: loss caused no retransmits";
    }
  }
  return op;
}

// -- traced runs --------------------------------------------------------------

void add_layers(Fields& f, const LayerCounts& l, double base_run_until_s) {
  const double events = static_cast<double>(l.events);
  const double pairs = static_cast<double>(l.probe_pairs);
  const double probe_host_s = l.run_until_s - base_run_until_s;
  f.insert(f.end(), {
      {"sim.events", events},
      {"sim.epochs", static_cast<double>(l.epochs)},
      {"sim.events_per_epoch", l.epochs ? events / l.epochs : 0.0},
      {"sim.pool_grows", static_cast<double>(l.pool_grows)},
      {"sim.mailbox_grows", static_cast<double>(l.mailbox_grows)},
      {"sim.run_until_s", l.run_until_s},
      {"sim.host_ns_per_event", events > 0 ? l.run_until_s * 1e9 / events : 0},
      {"ktau.probe_pairs", pairs},
      {"ktau.pairs_per_event", events > 0 ? pairs / events : 0.0},
      {"ktau.probe_host_s", probe_host_s},
      {"ktau.host_ns_per_pair", pairs > 0 ? probe_host_s * 1e9 / pairs : 0.0},
      {"kernel.sched_calls", static_cast<double>(l.sched_calls)},
      {"kernel.irq_calls", static_cast<double>(l.irq_calls)},
      {"libktau.get_profile_s", l.get_profile_s},
      {"libktau.wire_bytes", static_cast<double>(l.wire_bytes)},
      {"analysis.harvest_s", l.harvest_s},
      {"experiments.build_s", l.build_s},
  });
}

void accumulate(LayerCounts& into, const LayerCounts& l) {
  into.build_s += l.build_s;
  into.run_until_s += l.run_until_s;
  into.get_profile_s += l.get_profile_s;
  into.harvest_s += l.harvest_s;
  into.events += l.events;
  into.epochs += l.epochs;
  into.pool_grows += l.pool_grows;
  into.mailbox_grows += l.mailbox_grows;
  into.probe_pairs += l.probe_pairs;
  into.wire_bytes += l.wire_bytes;
  into.sched_calls += l.sched_calls;
  into.irq_calls += l.irq_calls;
}

/// A phased Base run of the same cluster (the reference for
/// ktau.probe_host_s; run first, it also warms the allocator), untraced
/// run_chiba, and the phased driver on the same config.
int traced_lu(const expt::ChibaRunConfig& cfg) {
  auto base_cfg = cfg;
  base_cfg.perturb = expt::PerturbMode::Base;
  const auto base = perfbench::run_phased_chiba(base_cfg);
  auto t0 = Clock::now();
  const auto ref = expt::run_chiba(cfg);
  const double untraced_s = since(t0);
  t0 = Clock::now();
  const auto ph = perfbench::run_phased_chiba(cfg);
  const double traced_s = since(t0);

  const std::string mismatch = perfbench::chiba_mismatch(ref, ph.result);
  std::uint64_t tcp_calls = 0, recv_calls = 0;
  for (const auto& rs : ph.result.ranks) {
    tcp_calls += rs.tcp_calls;
    recv_calls += rs.recv_calls;
  }
  const auto net =
      analysis::net_counter_totals(ph.result.net_nodes);
  Fields f;
  add_layers(f, ph.layers, base.layers.run_until_s);
  f.insert(f.end(), {
      {"knet.rx_segments", static_cast<double>(net.rx_segments)},
      {"knet.retransmits", static_cast<double>(net.retransmits)},
      {"knet.acks_received", static_cast<double>(net.acks_received)},
      {"kmpi.tcp_calls", static_cast<double>(tcp_calls)},
      {"tau.mpi_recv_calls", static_cast<double>(recv_calls)},
      {"apps.requests_completed", 0},
      {"apps.requests_per_host_s", 0},
      {"apps.exec_sim_s", ph.result.exec_sec},
      {"experiments.trials", 1},
      {"experiments.distinct_runs", 1},
      {"experiments.trial_host_s", untraced_s},
      {"experiments.duplicate_host_s", 0},
      {"bench.trace_overhead_ratio", traced_s / untraced_s - 1.0},
      {"ok", mismatch.empty() ? 1.0 : 0.0},
  });
  print_json(f, json_str("mismatch", mismatch));
  return 0;
}

int traced_serve(const std::vector<expt::ServeConfig>& cfgs) {
  LayerCounts sum;
  double untraced_s = 0, traced_s = 0, base_run_until_s = 0, exec_sec = 0;
  analysis::NetNodeCounters net;
  std::uint64_t completed = 0;
  std::string mismatch;
  for (const auto& cfg : cfgs) {
    base_run_until_s +=
        perfbench::run_phased_serve(cfg, /*base=*/true).layers.run_until_s;
    auto t0 = Clock::now();
    const auto ref = expt::run_serve(cfg);
    untraced_s += since(t0);
    t0 = Clock::now();
    const auto ph = perfbench::run_phased_serve(cfg);
    traced_s += since(t0);
    if (mismatch.empty()) mismatch = perfbench::serve_mismatch(ref, ph.result);
    accumulate(sum, ph.layers);
    net.rx_segments += ph.result.net.rx_segments;
    net.retransmits += ph.result.net.retransmits;
    net.acks_received += ph.result.net.acks_received;
    completed += ph.result.requests_completed;
    exec_sec += ph.result.exec_sec;
  }
  Fields f;
  add_layers(f, sum, base_run_until_s);
  f.insert(f.end(), {
      {"knet.rx_segments", static_cast<double>(net.rx_segments)},
      {"knet.retransmits", static_cast<double>(net.retransmits)},
      {"knet.acks_received", static_cast<double>(net.acks_received)},
      {"kmpi.tcp_calls", 0},
      {"tau.mpi_recv_calls", 0},
      {"apps.requests_completed", static_cast<double>(completed)},
      {"apps.requests_per_host_s", static_cast<double>(completed) / untraced_s},
      {"apps.exec_sim_s", exec_sec},
      {"experiments.trials", static_cast<double>(cfgs.size())},
      {"experiments.distinct_runs", static_cast<double>(cfgs.size())},
      {"experiments.trial_host_s", untraced_s},
      {"experiments.duplicate_host_s", 0},
      {"bench.trace_overhead_ratio", traced_s / untraced_s - 1.0},
      {"ok", mismatch.empty() ? 1.0 : 0.0},
  });
  print_json(f, json_str("mismatch", mismatch));
  return 0;
}

/// Times a ktau-matrix-v1 round trip and checks it is byte-identical.
int roundtrip(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // A single round trip takes well under a millisecond: report the median
  // of many so the figure is not one timer tick.
  constexpr int kReps = 51;
  std::vector<double> parse_s, write_s;
  bool identical = !text.empty();
  for (int i = 0; i < kReps; ++i) {
    auto t0 = Clock::now();
    const analysis::MatrixDoc doc = analysis::parse_matrix_doc(text);
    parse_s.push_back(since(t0));
    t0 = Clock::now();
    const std::string out = analysis::matrix_doc_to_string(doc);
    write_s.push_back(since(t0));
    identical = identical && out == text;
  }
  std::sort(parse_s.begin(), parse_s.end());
  std::sort(write_s.begin(), write_s.end());
  print_json({{"analysis.matrixdoc_parse_s", parse_s[kReps / 2]},
              {"analysis.matrixdoc_write_s", write_s[kReps / 2]},
              {"ok", identical ? 1.0 : 0.0}});
  return 0;
}

/// The benchmark's own test: at a short LU length the phased driver equals
/// run_chiba field for field (ProfAll+Tau and Base), and the phased serve
/// driver equals run_serve on every reproduced field.
int selftest() {
  int failures = 0;
  auto report = [&failures](const std::string& what, const std::string& d) {
    std::printf("%s: %s%s\n", what.c_str(), d.empty() ? "PASS" : "FAIL ",
                d.c_str());
    failures += d.empty() ? 0 : 1;
  };
  for (const auto mode :
       {expt::PerturbMode::ProfAllTau, expt::PerturbMode::Base}) {
    for (const std::uint64_t seed : {0ULL, 3ULL}) {
      const auto cfg = lu_config(seed, 0.004, mode);
      const auto phased = perfbench::run_phased_chiba(cfg);
      report("phased LU equals run_chiba (" + expt::perturb_name(mode) +
                 ", seed " + std::to_string(cfg.seed) + ")",
             perfbench::chiba_mismatch(expt::run_chiba(cfg), phased.result));
    }
  }
  for (const auto& cfg : serve_mix_configs(0, 0.5)) {
    report("phased serve equals run_serve (" + expt::serve_mode_name(cfg.mode) +
               ", " + std::string(knet::stack_kind_name(cfg.stack)) + ")",
           perfbench::serve_mismatch(expt::run_serve(cfg),
                                     perfbench::run_phased_serve(cfg).result));
  }
  return failures == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--mode") {
      o.mode = v;
    } else if (k == "--workload") {
      o.workload = v;
    } else if (k == "--doc") {
      o.doc = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::atof(v);
    } else if (k == "--min-ops") {
      o.min_ops = std::atoi(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.mode.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) {
    std::fprintf(stderr, "usage: perfbench_driver --mode M [--workload W] "
                         "[--seed N] [--seconds S] [--min-ops K] "
                         "[--doc P]\n");
    return 2;
  }
  // Process-wide defaults must not leak between workloads: pin them.
  expt::set_default_sim_threads(1);
  expt::set_default_stack_model(knet::StackKind::Fixed);
  try {
    if (o.mode == "selftest") return selftest();
    if (o.mode == "roundtrip") return roundtrip(o.doc);
    if (o.mode == "reference") {
      print_json({{"reference_s", best_reference(kReferenceModeReps)}});
      return 0;
    }

    // Operation i runs input i mod kInputs, so a run spans several inputs
    // and two runs on different seeds see similar work.
    std::vector<std::function<OpResult()>> inputs;
    for (int j = 0; j < kInputs; ++j) {
      const std::uint64_t seed = input_seed(o.seed, j);
      if (o.workload == "lu_anomaly") {
        const auto cfg = lu_config(seed, kLuAnomalyScale,
                                   expt::PerturbMode::ProfAllTau);
        inputs.push_back([cfg] { return run_lu_op(cfg, kLuAnomalyExec); });
      } else if (o.workload == "lu_base") {
        const auto cfg =
            lu_config(seed, kLuBaseScale, expt::PerturbMode::Base);
        inputs.push_back([cfg] { return run_lu_op(cfg, kLuBaseExec); });
      } else if (o.workload == "serve_mix") {
        const auto cfgs = serve_mix_configs(seed, kServeScale);
        inputs.push_back([cfgs] { return run_serve_op(cfgs); });
      } else if (o.workload == "matrix_key") {
        auto cfg = lu_config(0, kMatrixScale,
                             expt::PerturbMode::ProfAllTau);
        cfg.seed = matrix_key_seed(seed);
        inputs.push_back([cfg] { return run_lu_op(cfg, kLuAnomalyExec); });
      } else {
        std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
      }
    }

    if (o.mode == "traced") {
      // The traced run uses input 0.
      const std::uint64_t seed = input_seed(o.seed, 0);
      if (o.workload == "serve_mix") {
        return traced_serve(serve_mix_configs(seed, kServeScale));
      }
      if (o.workload == "lu_base") {
        return traced_lu(
            lu_config(seed, kLuBaseScale, expt::PerturbMode::Base));
      }
      auto cfg = lu_config(seed, kLuAnomalyScale,
                           expt::PerturbMode::ProfAllTau);
      if (o.workload == "matrix_key") {
        cfg.scale = kMatrixScale;
        cfg.seed = matrix_key_seed(seed);
      }
      return traced_lu(cfg);
    }
    std::string ready = json_str("compiler", PERFBENCH_COMPILER) + ", " +
                        json_str("build_type", PERFBENCH_BUILD_TYPE);
    if (o.workload == "matrix_key") ready += ", " + bench_matrix_args(o.seed);
    print_json({{"ready", 1}}, ready);
    if (o.mode == "setup") return 0;
    if (o.mode != "timed") return 2;

    // Closed loop: start another operation while it still fits the window
    // (judged by the last one's length), and always run at least min_ops.
    // The host-speed reference runs before each operation and once after
    // the last, so every operation has one just before and after it.
    const auto start = Clock::now();
    double last = 0;
    for (int i = 0; i < o.min_ops || since(start) + last <= o.seconds; ++i) {
      const double reference_s = best_reference(kReferenceReps);
      const double c0 = cpu_seconds();
      const auto t0 = Clock::now();
      OpResult r;
      try {
        r = inputs[i % inputs.size()]();
      } catch (const std::exception& e) {
        r.fail = std::string("threw: ") + e.what();
      }
      last = since(t0);
      Fields f = {{"op", i},
                  {"wall_s", last},
                  {"cpu_s", cpu_seconds() - c0},
                  {"events", static_cast<double>(r.events)},
                  {"reference_s", reference_s},
                  {"ok", r.fail.empty() ? 1.0 : 0.0}};
      f.insert(f.end(), r.headline.begin(), r.headline.end());
      print_json(f, json_str("fail", r.fail));
    }
    print_json({{"peak_rss_mb", peak_rss_mb()},
                {"reference_s", best_reference(kReferenceReps)}});
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
