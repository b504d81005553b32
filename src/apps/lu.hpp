// Behavioural model of NPB LU (the paper's main workload, §5.1-5.3).
//
// LU applies SSOR over a 3-D grid with a 2-D processor decomposition.  Its
// performance-relevant behaviour — the part KTAU observes — is:
//   - a per-iteration right-hand-side computation (rhs) with a halo
//     exchange,
//   - two pipelined triangular solves per iteration (blts from the
//     north-west corner, buts from the south-east) with many small
//     neighbour messages per k-block (LU's famous fine-grained pipeline),
//   - periodic l2norm allreduces.
//
// Compute phases are simulated durations with small per-rank jitter;
// communication runs the full simulated syscall/TCP path.  Every routine is
// TAU-instrumented (main/ssor/rhs/blts/buts/l2norm/exchange plus MPI_Send /
// MPI_Recv wrappers), which is what the merged views of Figures 2-4 consume.
#pragma once

#include <memory>
#include <vector>

#include "kmpi/world.hpp"
#include "tau/profiler.hpp"

namespace ktau::apps {

struct LuParams {
  int iterations = 100;
  int px = 16;  // processor grid columns
  int py = 8;   // processor grid rows (px*py == world size)
  int k_blocks = 16;  // pipeline stages per triangular solve

  sim::TimeNs rhs_time = 1000 * sim::kMillisecond;
  sim::TimeNs stage_time = 30 * sim::kMillisecond;

  std::uint64_t halo_bytes = 40 * 1024;  // rhs boundary exchange
  std::uint64_t pipe_bytes = 8 * 1024;   // per-stage pipeline message
  std::uint64_t norm_bytes = 64;         // allreduce payload

  int norm_every = 10;   // iterations between l2norm allreduces
  double jitter = 0.02;  // multiplicative compute jitter per burst

  std::uint64_t seed = 0x1234;
  tau::TauConfig tau;

  bool operator==(const LuParams&) const = default;
};

class LuApp {
 public:
  /// World must have px*py ranks.  Builds per-rank TAU profilers and
  /// installs the rank programs; call world.launch_all() (or
  /// install_and_launch) afterwards.
  LuApp(mpi::World& world, const LuParams& params);

  void install_and_launch();

  tau::Profiler& profiler(int rank) { return *profs_.at(rank); }
  const LuParams& params() const { return params_; }
  mpi::World& world() { return world_; }

 private:
  mpi::World& world_;
  LuParams params_;
  std::vector<std::unique_ptr<tau::Profiler>> profs_;
};

}  // namespace ktau::apps
