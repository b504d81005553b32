// Deterministic fault / interference injection plan.
//
// The paper's §5 experiments are about OS-level interference — daemons,
// interrupt load, degraded nodes — distorting parallel workloads, and
// about KTAU making that interference visible.  A lossless fabric and a
// kernel that never misbehaves can only ever show self-inflicted probe
// overhead, so FaultPlan supplies the misbehaviour: seeded, config-driven
// injection of
//
//   (a) packet loss / reordering on the fabric, recovered by a minimal TCP
//       retransmission-timer path in knet (src/knet/stack.cpp);
//   (b) IRQ storms and stolen-cycle "daemon interference" bursts delivered
//       through the kernel's interrupt layer (src/kernel/faults.cpp) —
//       the in-simulator analogue of the paper's artificial-daemon Chiba
//       experiment (§5.1);
//   (c) a per-node compute slowdown factor for degraded "victim" nodes
//       (kernel::MachineConfig::fault_slowdown, set from this plan by the
//       experiment harness).
//
// Determinism rules (see DESIGN.md §7):
//   - every draw comes from a per-(node, purpose) sim::Rng stream seeded
//     from FaultConfig::seed, so the same config + seed produces the same
//     drop/storm schedule bit for bit, independent of other RNG users;
//   - injected work is charged as *path cost* on the victim CPU's cursor
//     (retransmit handlers, storm handlers, stolen bursts), never as KTAU
//     probe cost — faults perturb the measured system, not the measurement;
//   - with every knob at its default, no hook draws, schedules, registers
//     an event, or charges a cycle: the layer is provably inert.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace ktau::sim {

/// KTAU instrumentation-point names the fault hooks register (lazily, only
/// when the corresponding fault class is active, so an inert plan leaves
/// the event registry untouched).  Analysis matches these names to make
/// degraded nodes stand out in the kernel-wide view.
inline constexpr const char* kStormIrqEvent = "spurious_irq";
inline constexpr const char* kStealEvent = "steal_interference";
inline constexpr const char* kTcpRetxEvent = "tcp_retransmit_timer";

struct FaultConfig {
  // -- network faults (whole fabric, drawn on the sending node) -------------
  /// Probability that an outgoing TCP segment is lost on the wire.  Lost
  /// segments are recovered by the sender's retransmission timer.
  double drop_prob = 0.0;
  /// Probability that a (non-dropped) segment is delayed by
  /// `reorder_extra`, arriving behind segments sent after it.
  double reorder_prob = 0.0;
  TimeNs reorder_extra = 400 * kMicrosecond;
  /// Retransmission timeout (Linux TCP_RTO_MIN territory); doubles per
  /// retry (bounded exponential backoff).
  TimeNs rto = 200 * kMillisecond;
  /// Retries after which a segment is delivered unconditionally (keeps the
  /// simulation live under extreme drop probabilities).
  std::uint32_t max_retx = 8;

  // -- IRQ storms (victim nodes) --------------------------------------------
  /// Mean storm bursts per simulated second (exponential inter-burst gaps).
  double storm_rate_hz = 0.0;
  /// Spurious interrupts per burst and their spacing.
  std::uint32_t storm_len = 32;
  TimeNs storm_gap = 30 * kMicrosecond;
  /// Cycles the spurious-IRQ handler burns per interrupt (path cost, on
  /// top of the kernel's ordinary do_IRQ prologue).
  std::uint64_t storm_handler_cycles = 2500;

  // -- stolen-cycle "daemon interference" (victim nodes) --------------------
  /// Every `steal_period`, a kernel-level burst steals `steal_duration`
  /// of CPU from whatever runs on the victim (SMI / hypervisor-steal /
  /// misbehaving-daemon analogue).  Both must be > 0 to be active.
  TimeNs steal_period = 0;
  TimeNs steal_duration = 0;

  // -- per-node slowdown (victim nodes) -------------------------------------
  /// Multiplicative wall-time dilation of user compute on victim nodes
  /// (1.0 = healthy).  Applied by the machine's burst engine.
  double slowdown = 1.0;

  /// Degraded nodes: targets of storms, steals, and the slowdown factor.
  /// Network faults apply fabric-wide.  Empty == no victim interference.
  std::vector<std::uint32_t> victims;

  /// Interference stops being injected past this simulated time.
  TimeNs until = 100'000 * kSecond;

  /// Root seed of every fault stream.
  std::uint64_t seed = 0xFA157;

  bool net_active() const { return drop_prob > 0.0 || reorder_prob > 0.0; }
  bool storm_active() const {
    return storm_rate_hz > 0.0 && storm_len > 0 && !victims.empty();
  }
  bool steal_active() const {
    return steal_period > 0 && steal_duration > 0 && !victims.empty();
  }
  bool interference_active() const { return storm_active() || steal_active(); }
  bool slowdown_active() const { return slowdown != 1.0 && !victims.empty(); }
  bool any() const {
    return net_active() || interference_active() || slowdown_active();
  }
  bool is_victim(std::uint32_t node) const {
    return std::find(victims.begin(), victims.end(), node) != victims.end();
  }

  bool operator==(const FaultConfig&) const = default;
};

/// A materialized fault plan: the config plus its per-(node, purpose)
/// deterministic RNG streams and the running injection counters.  One plan
/// serves a whole cluster; knet and the kernel injectors hold a pointer.
class FaultPlan {
 public:
  /// What one outgoing segment's wire fate is.
  enum class SegmentFate { Deliver, Reorder, Drop };

  /// Running counts of everything injected; two runs with the same config
  /// and seed must produce identical totals (the fault-schedule
  /// determinism check bench_faults PASSes on).
  struct Totals {
    std::uint64_t segments_dropped = 0;
    std::uint64_t segments_reordered = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t storm_irqs = 0;
    std::uint64_t steal_bursts = 0;

    Totals& operator+=(const Totals& o) {
      segments_dropped += o.segments_dropped;
      segments_reordered += o.segments_reordered;
      retransmits += o.retransmits;
      storm_irqs += o.storm_irqs;
      steal_bursts += o.steal_bursts;
      return *this;
    }
  };

  FaultPlan(const FaultConfig& cfg, std::uint32_t nodes);

  const FaultConfig& config() const { return cfg_; }
  bool active() const { return cfg_.any(); }

  /// Draws the fate of one segment leaving `src_node` (counts drops and
  /// reorders).  Call only when config().net_active().
  SegmentFate segment_fate(std::uint32_t src_node);

  /// The interference stream of one node (storm gaps, steal phases).
  Rng& interference_rng(std::uint32_t node) {
    return interference_rng_.at(node);
  }

  /// Injection counters of one node.  Counters are per-node slabs (not one
  /// shared struct) so injectors on different cluster shards never touch
  /// the same cache line — the plan stays data-race-free under the parallel
  /// scheduler without atomics.
  Totals& node_totals(std::uint32_t node) { return node_totals_.at(node); }

  /// Cluster-wide totals (sum over nodes).
  Totals totals() const {
    Totals sum;
    for (const Totals& t : node_totals_) sum += t;
    return sum;
  }

 private:
  FaultConfig cfg_;
  std::vector<Rng> net_rng_;           // indexed by sending node
  std::vector<Rng> interference_rng_;  // indexed by node
  struct alignas(64) PaddedTotals : Totals {};
  std::vector<PaddedTotals> node_totals_;  // indexed by node
};

}  // namespace ktau::sim
