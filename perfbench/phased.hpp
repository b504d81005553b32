// Phased drivers: the same runs as expt::run_chiba and expt::run_serve,
// rebuilt from the public layer constructors so the traced benchmark run can
// put a span around each phase (build, the run_until chunks, extraction,
// harvest).  Each driver must reproduce its one-call counterpart exactly;
// the benchmark compares them and fails the run when they disagree.
#pragma once

#include <cstdint>
#include <string>

#include "experiments/chiba.hpp"
#include "experiments/serve.hpp"

namespace perfbench {

/// Host seconds and exact counts gathered at the layer boundaries of one
/// phased run.
struct LayerCounts {
  double build_s = 0;        // experiments: cluster, fabric, world, app
  double run_until_s = 0;    // sim: summed spans around Cluster::run_until
  double get_profile_s = 0;  // libktau: KtauHandle::get_profile, all nodes
  double harvest_s = 0;      // analysis: views over the snapshots
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t pool_grows = 0;
  std::uint64_t mailbox_grows = 0;
  std::uint64_t probe_pairs = 0;  // entry/exit probe pairs, all nodes
  std::uint64_t wire_bytes = 0;   // get_profile wire bytes, all nodes
  std::uint64_t sched_calls = 0;  // Sched-group probe counts, all nodes
  std::uint64_t irq_calls = 0;    // Irq-group probe counts, all nodes
};

struct PhasedChiba {
  ktau::expt::ChibaRunResult result;
  LayerCounts layers;
};

/// LU on the 64x2 Anomaly cluster, fault-free, one simulation thread.
/// Throws std::invalid_argument for any other configuration.
PhasedChiba run_phased_chiba(const ktau::expt::ChibaRunConfig& cfg);

struct PhasedServe {
  ktau::expt::ServeResult result;
  LayerCounts layers;
};

/// One run_serve configuration, one simulation thread.  `base` builds the
/// same run with KTAU compiled out of every node (no run_serve
/// counterpart): the reference run_until time for ktau.probe_host_s.
PhasedServe run_phased_serve(const ktau::expt::ServeConfig& cfg,
                             bool base = false);

/// Empty when `phased` reproduces every field of `ref`; otherwise names the
/// first field that differs.
std::string chiba_mismatch(const ktau::expt::ChibaRunResult& ref,
                           const ktau::expt::ChibaRunResult& phased);
std::string serve_mismatch(const ktau::expt::ServeResult& ref,
                           const ktau::expt::ServeResult& phased);

}  // namespace perfbench
