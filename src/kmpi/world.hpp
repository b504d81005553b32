// Minimal MPI-like layer over the simulated socket stack.
//
// Models what MPICH-over-TCP looked like on the paper's clusters: one OS
// process per rank, eager blocking point-to-point messages over per-pair
// TCP connections, and collectives composed from point-to-point exchanges.
// MPI_Recv blocks in sys_read when the message has not arrived — which the
// kernel accounts as *voluntary* scheduling, the linchpin of the paper's
// Chiba diagnosis (remote slowdowns surface as voluntary waits, §5.2).
//
// The world maps ranks onto (node, CPU-affinity) placements; the Chiba
// experiment configurations (128x1, 64x2, pinned, ...) are just different
// placement vectors.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/cluster.hpp"
#include "kernel/program.hpp"
#include "kernel/task.hpp"
#include "knet/stack.hpp"

namespace ktau::mpi {

struct RankPlacement {
  kernel::NodeId node = 0;
  kernel::CpuMask affinity = kernel::kAllCpus;
  sim::TimeNs start_delay = 0;
};

class World {
 public:
  /// Envelope bytes added to every message payload.
  static constexpr std::uint64_t kHeaderBytes = 64;

  /// MPICH-style receive polling: MPI_Recv spins on non-blocking reads for
  /// up to this long before issuing a blocking read.  This is what makes
  /// co-located ranks contend for the CPU even while "waiting" (§5.2's
  /// mutual preemption on the anomalous node).
  sim::TimeNs recv_spin = 80 * sim::kMillisecond;

  /// Spawns one task per rank according to `placement`.  The caller then
  /// installs each rank's program (task(r).program = ...) and calls
  /// launch_all().
  World(kernel::Cluster& cluster, knet::Fabric& fabric,
        std::vector<RankPlacement> placement, std::string app_name = "app");

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return static_cast<int>(placement_.size()); }
  kernel::Task& task(int rank) { return *tasks_.at(rank); }
  kernel::Machine& machine_of(int rank) {
    return cluster_.machine(placement_.at(rank).node);
  }
  const RankPlacement& placement(int rank) const {
    return placement_.at(rank);
  }

  /// Makes all ranks runnable (at their per-rank start delays).
  void launch_all();

  // -- communication actions (co_await the returned action) ------------------

  /// Blocking eager send of `payload` bytes from `self` to `dst`.
  kernel::Action send(int self, int dst, std::uint64_t payload);

  /// Blocking receive of a `payload`-byte message from `src`.
  kernel::Action recv(int self, int src, std::uint64_t payload);

  /// Peers of `self` in a recursive-doubling allreduce, in exchange order.
  /// Exact for power-of-two sizes; peers beyond size() are skipped (a
  /// behaviour-level simplification, see DESIGN.md).
  std::vector<int> allreduce_peers(int self) const;

  // -- results -----------------------------------------------------------------

  /// Completion time of the whole job (max rank end time).
  sim::TimeNs job_completion() const;

  /// Per-rank execution time (end - start).
  sim::TimeNs rank_exec_time(int rank) const;

 private:
  /// The pre-wired simplex channel src -> dst (fd_a lives on src's node,
  /// fd_b on dst's node); std::out_of_range for a pair that is not one.
  const knet::Fabric::Connection& chan(int src, int dst) const;

  kernel::Cluster& cluster_;
  std::vector<RankPlacement> placement_;
  std::vector<kernel::Task*> tasks_;
  std::unordered_map<std::uint64_t, knet::Fabric::Connection> chans_;
};

}  // namespace ktau::mpi
