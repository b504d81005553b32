#include "apps/sweep3d.hpp"

#include <stdexcept>

#include "sim/rng.hpp"

namespace ktau::apps {

namespace {

using kernel::Compute;
using kernel::Program;

struct SweepIds {
  tau::FuncId main_, source, sweep, sweep_compute, flux_err, send, recv;
};

SweepIds register_routines(tau::Profiler& tau) {
  SweepIds ids;
  ids.main_ = tau.reg("main");
  ids.source = tau.reg("source");
  ids.sweep = tau.reg("sweep");
  ids.sweep_compute = tau.reg("sweep_compute");
  ids.flux_err = tau.reg("flux_err");
  ids.send = tau.reg("MPI_Send");
  ids.recv = tau.reg("MPI_Recv");
  return ids;
}

Program sweep_rank(mpi::World& w, tau::Profiler& tau, const SweepParams p,
                   const int rank) {
  const SweepIds f = register_routines(tau);
  sim::Rng rng(p.seed ^ (0xD1B54A32D192ED03ULL * (rank + 1)));
  auto jit = [&rng, &p](sim::TimeNs t) {
    return static_cast<sim::TimeNs>(
        static_cast<double>(t) *
        (1.0 + p.jitter * (rng.next_double() * 2.0 - 1.0)));
  };

  const int col = rank % p.px;
  const int row = rank / p.px;

  tau.enter(f.main_);
  for (int it = 0; it < p.iterations; ++it) {
    // Source term: big communication-free compute.
    tau.enter(f.source);
    co_await Compute{jit(p.source_time)};
    tau.exit(f.source);

    // Octant sweeps.
    tau.enter(f.sweep);
    for (int oct = 0; oct < p.octants; ++oct) {
      const int sx = (oct & 1) != 0 ? 1 : -1;  // +1: west -> east
      const int sy = (oct & 2) != 0 ? 1 : -1;  // +1: north -> south
      const int upwind_x = sx > 0 ? (col > 0 ? rank - 1 : -1)
                                  : (col < p.px - 1 ? rank + 1 : -1);
      const int downwind_x = sx > 0 ? (col < p.px - 1 ? rank + 1 : -1)
                                    : (col > 0 ? rank - 1 : -1);
      const int upwind_y = sy > 0 ? (row > 0 ? rank - p.px : -1)
                                  : (row < p.py - 1 ? rank + p.px : -1);
      const int downwind_y = sy > 0 ? (row < p.py - 1 ? rank + p.px : -1)
                                    : (row > 0 ? rank - p.px : -1);

      for (int kb = 0; kb < p.k_blocks; ++kb) {
        if (upwind_x >= 0) {
          tau.enter(f.recv);
          co_await w.recv(rank, upwind_x, p.face_bytes);
          tau.exit(f.recv);
        }
        if (upwind_y >= 0) {
          tau.enter(f.recv);
          co_await w.recv(rank, upwind_y, p.face_bytes);
          tau.exit(f.recv);
        }
        // The communication-free compute block of Figure 9.
        tau.enter(f.sweep_compute);
        co_await Compute{jit(p.block_time)};
        tau.exit(f.sweep_compute);
        if (downwind_x >= 0) {
          tau.enter(f.send);
          co_await w.send(rank, downwind_x, p.face_bytes);
          tau.exit(f.send);
        }
        if (downwind_y >= 0) {
          tau.enter(f.send);
          co_await w.send(rank, downwind_y, p.face_bytes);
          tau.exit(f.send);
        }
      }
    }
    tau.exit(f.sweep);

    // Flux error check: compute + allreduce.
    tau.enter(f.flux_err);
    co_await Compute{jit(p.flux_time)};
    for (const int peer : w.allreduce_peers(rank)) {
      tau.enter(f.send);
      co_await w.send(rank, peer, p.flux_bytes);
      tau.exit(f.send);
      tau.enter(f.recv);
      co_await w.recv(rank, peer, p.flux_bytes);
      tau.exit(f.recv);
    }
    tau.exit(f.flux_err);
  }
  tau.exit(f.main_);
}

}  // namespace

SweepApp::SweepApp(mpi::World& world, const SweepParams& params)
    : world_(world), params_(params) {
  if (world_.size() != params_.px * params_.py) {
    throw std::invalid_argument(
        "SweepApp: world size must equal px*py of the processor grid");
  }
  profs_.reserve(world_.size());
  for (int r = 0; r < world_.size(); ++r) {
    profs_.push_back(std::make_unique<tau::Profiler>(
        world_.machine_of(r), world_.task(r), params_.tau));
    world_.task(r).program = sweep_rank(world_, *profs_[r], params_, r);
  }
}

}  // namespace ktau::apps
