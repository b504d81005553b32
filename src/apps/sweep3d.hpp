// Behavioural model of ASCI Sweep3D (the paper's second workload).
//
// Sweep3D performs discrete-ordinates neutron transport: per time step it
// sweeps wavefronts across a 2-D processor grid from each of 8 octant
// corners, blocking the work in k-planes/angles.  Each block: receive from
// the two upwind neighbours, a *communication-free* compute block, send to
// the two downwind neighbours.  The compute block is TAU-marked as
// "sweep_compute" — the phase whose kernel-level TCP intrusion Figure 9
// measures.
#pragma once

#include <memory>
#include <vector>

#include "kmpi/world.hpp"
#include "tau/profiler.hpp"

namespace ktau::apps {

struct SweepParams {
  int iterations = 24;  // time steps
  int px = 16;
  int py = 8;
  int octants = 8;
  int k_blocks = 6;  // k/angle blocking per octant sweep

  sim::TimeNs source_time = 900 * sim::kMillisecond;  // per iteration
  sim::TimeNs block_time = 55 * sim::kMillisecond;    // per sweep block
  sim::TimeNs flux_time = 120 * sim::kMillisecond;    // flux_err per iter

  std::uint64_t face_bytes = 16 * 1024;  // per-face message per block
  std::uint64_t flux_bytes = 64;         // allreduce payload

  double jitter = 0.02;
  std::uint64_t seed = 0x5EE9;
  tau::TauConfig tau;

  bool operator==(const SweepParams&) const = default;
};

class SweepApp {
 public:
  SweepApp(mpi::World& world, const SweepParams& params);

  tau::Profiler& profiler(int rank) { return *profs_.at(rank); }
  const SweepParams& params() const { return params_; }
  mpi::World& world() { return world_; }

 private:
  mpi::World& world_;
  SweepParams params_;
  std::vector<std::unique_ptr<tau::Profiler>> profs_;
};

}  // namespace ktau::apps
