#include "kmpi/world.hpp"

#include <algorithm>
#include <stdexcept>

namespace ktau::mpi {

namespace {

std::uint64_t chan_key(int src, int dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

}  // namespace

World::World(kernel::Cluster& cluster, knet::Fabric& fabric,
             std::vector<RankPlacement> placement, std::string app_name)
    : cluster_(cluster), placement_(std::move(placement)) {
  tasks_.reserve(placement_.size());
  for (std::size_t r = 0; r < placement_.size(); ++r) {
    const RankPlacement& p = placement_[r];
    kernel::Machine& m = cluster_.machine(p.node);
    kernel::Task& t = m.spawn(app_name + "." + std::to_string(r), p.affinity,
                              p.start_delay);
    tasks_.push_back(&t);
  }
  // Ranks first talk to each other from the shards' worker threads, so
  // connecting a channel on first use would (a) race on the fabric's socket
  // tables and (b) make fd numbering depend on the execution interleaving.
  // Pre-wire every ordered pair during single-threaded setup, in a fixed
  // order, so fds are identical for every shard count.
  const int n = size();
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      chans_.emplace(chan_key(src, dst),
                     fabric.connect(placement_[src].node,
                                     placement_[dst].node));
    }
  }
}

void World::launch_all() {
  for (std::size_t r = 0; r < tasks_.size(); ++r) {
    cluster_.machine(placement_[r].node).launch(*tasks_[r]);
  }
}

const knet::Fabric::Connection& World::chan(int src, int dst) const {
  return chans_.at(chan_key(src, dst));
}

kernel::Action World::send(int self, int dst, std::uint64_t payload) {
  if (dst == self) throw std::invalid_argument("MPI send to self");
  const auto& c = chan(self, dst);
  return kernel::SendMsg{c.fd_a, payload + kHeaderBytes};
}

kernel::Action World::recv(int self, int src, std::uint64_t payload) {
  if (src == self) throw std::invalid_argument("MPI recv from self");
  const auto& c = chan(src, self);
  return kernel::RecvMsg{c.fd_b, payload + kHeaderBytes, recv_spin};
}

std::vector<int> World::allreduce_peers(int self) const {
  std::vector<int> peers;
  for (int bit = 1; bit < size(); bit <<= 1) {
    const int peer = self ^ bit;
    if (peer < size()) peers.push_back(peer);
  }
  return peers;
}

sim::TimeNs World::job_completion() const {
  sim::TimeNs done = 0;
  for (const kernel::Task* t : tasks_) done = std::max(done, t->end_time);
  return done;
}

sim::TimeNs World::rank_exec_time(int rank) const {
  const kernel::Task& t = *tasks_.at(rank);
  return t.end_time > t.start_time ? t.end_time - t.start_time : 0;
}

}  // namespace ktau::mpi
