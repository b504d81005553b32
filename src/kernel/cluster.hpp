// Cluster: the discrete-event engine plus a set of simulated nodes.
//
// Experiments construct a Cluster, add Machines (one per physical node of
// the testbed being modelled), wire a network fabric over them (src/knet),
// spawn workloads, and run the engine.
//
// Every Cluster partitions its nodes round-robin across the ShardPlan's S
// per-shard event queues and runs them with the conservative parallel
// scheduler (sim::ShardedEngine, DESIGN.md §11); the default plan is one
// shard.  The lookahead comes from the fabric: a node can only influence
// another node through a link, so no cross-shard effect can land sooner
// than now() + latency, and wiring a knet::Fabric lowers the lookahead to
// its link latency.  A cluster without a fabric has no cross-node traffic,
// so its lookahead stays unbounded.
#pragma once

#include <memory>
#include <vector>

#include "kernel/config.hpp"
#include "kernel/machine.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"

namespace ktau::kernel {

/// How to partition a cluster's nodes across event queues.
struct ShardPlan {
  /// Worker shards.
  unsigned shards = 1;
  /// Conservative lookahead (nonzero).  knet's Fabric lowers it to the link
  /// latency when it is wired up.
  sim::TimeNs lookahead = sim::kTimeMax;
};

class Cluster {
 public:
  Cluster() : Cluster(ShardPlan{}) {}
  explicit Cluster(const ShardPlan& plan)
      : sharded_(plan.shards, plan.lookahead) {}
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Shard-0 engine, for global setup events (workload spawns, run-loop
  /// chunking) that must not race with per-node state.
  sim::Engine& engine() { return sharded_.shard(0); }

  sim::ShardedEngine& sharded_engine() { return sharded_; }

  unsigned shards() const { return sharded_.shards(); }
  sim::TimeNs lookahead() const { return sharded_.lookahead(); }
  /// Lowers the lookahead to `latency` if that is smaller (the fabric does
  /// this when it is wired).  Call between runs.
  void lower_lookahead(sim::TimeNs latency) {
    sharded_.lower_lookahead(latency);
  }

  /// Event-queue shard owning node `id` (round-robin placement).
  unsigned shard_of(NodeId id) const { return id % sharded_.shards(); }

  /// Schedules `cb` at absolute time `t` on dst's shard, from code running
  /// on src's shard.  This is the only legal way to schedule onto another
  /// node's timeline; `t` must respect the lookahead.
  template <typename F>
  void cross_schedule(NodeId src, NodeId dst, sim::TimeNs t, F&& cb) {
    sharded_.cross_schedule(shard_of(src), src, shard_of(dst), t,
                            std::forward<F>(cb));
  }

  /// Adds a node.  Node ids are dense, in creation order.
  Machine& add_machine(const MachineConfig& cfg);

  Machine& machine(NodeId id) { return *machines_.at(id); }
  const Machine& machine(NodeId id) const { return *machines_.at(id); }
  std::size_t size() const { return machines_.size(); }

  /// Pre-sizes every shard's event pools and cross-shard mailboxes.
  void reserve_events(std::size_t events_per_shard,
                      std::size_t mailbox_per_link) {
    sharded_.reserve(events_per_shard, mailbox_per_link);
  }

  /// Runs the simulation until no events remain.
  void run() { sharded_.run(); }

  /// Runs the simulation up to (and including) time `t`.
  void run_until(sim::TimeNs t) { sharded_.run_until(t); }

  /// Committed global time.  Only valid between run()/run_until() calls —
  /// never from inside a simulation callback, where the shards' clocks
  /// advance concurrently (asserted in ShardedEngine::now()).  Event code
  /// uses its own node's engine clock instead.
  sim::TimeNs now() const { return sharded_.now(); }

  /// Events executed across all shards.
  std::uint64_t executed_total() const { return sharded_.executed_total(); }

 private:
  sim::ShardedEngine sharded_;
  std::vector<std::unique_ptr<Machine>> machines_;
};

}  // namespace ktau::kernel
