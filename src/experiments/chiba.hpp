// The Chiba-City experiment harness (paper §5.2-5.3).
//
// Reconstructs the five cluster configurations of the paper's diagnosis
// story and the perturbation study's instrumentation modes, runs LU or
// Sweep3D on them, and collects per-rank merged user/kernel statistics
// through the real extraction path (libKtau snapshots per node).
//
// Configurations (Table 2):
//   128x1         — 128 nodes, one rank per node
//   64x2 Anomaly  — 64 nodes, two ranks per node; node 61 ("ccn10") boots
//                   with only one CPU detected
//   64x2          — anomalous node removed (all nodes healthy)
//   64x2 Pinned   — ranks pinned one per CPU
//   64x2 Pin,I-Bal— pinned + interrupt balancing (round-robin IRQ routing)
//   128x1 Pin,IRQ-CPU1 — Figure 9/10 control: rank and all IRQs on CPU1
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/netstat.hpp"
#include "apps/lu.hpp"
#include "apps/sweep3d.hpp"
#include "kernel/cluster.hpp"
#include "kmpi/world.hpp"
#include "knet/stack.hpp"
#include "ktau/snapshot.hpp"
#include "sim/fault.hpp"

namespace ktau::expt {

enum class ChibaConfig {
  C128x1,
  C64x2Anomaly,
  C64x2,
  C64x2Pinned,
  C64x2PinIbal,
  C128x1PinIrqCpu1,
};

std::string config_name(ChibaConfig c);

enum class Workload { LU, Sweep3D };

/// Instrumentation modes of the perturbation study (Table 3).
enum class PerturbMode {
  Base,      // vanilla kernel, uninstrumented app
  KtauOff,   // instrumentation compiled in, disabled by runtime flags
  ProfAll,   // all kernel instrumentation groups on
  ProfSched, // only the scheduler group on
  ProfAllTau // ProfAll + TAU user-level instrumentation
};

std::string perturb_name(PerturbMode m);

/// Process-wide default for ChibaRunConfig::sim_threads (what the
/// `--sim-threads` CLI flag sets, before any scenarios run).  Simulation
/// output is byte-identical for every value — the knob only chooses how
/// many worker threads the conservative parallel scheduler uses.
void set_default_sim_threads(int threads);
int default_sim_threads();
/// Event-queue shards for a run on `nodes` nodes: `sim_threads` (0 = the
/// process default) clamped to [1, nodes].
unsigned sim_shards(int sim_threads, int nodes);

/// Process-wide default for ChibaRunConfig::stack (what the `--stack` CLI
/// flag sets, before any scenarios run).  Unlike --sim-threads this DOES
/// change simulation results — it selects the TCP stack model
/// (DESIGN.md §13); the default, StackKind::Fixed, reproduces the
/// historical behaviour byte for byte.
void set_default_stack_model(knet::StackKind kind);
knet::StackKind default_stack_model();

struct ChibaRunConfig {
  ChibaConfig config = ChibaConfig::C128x1;
  Workload workload = Workload::LU;
  PerturbMode perturb = PerturbMode::ProfAllTau;
  int ranks = 128;
  std::uint64_t seed = 7;
  bool daemons = true;
  /// Event-queue shards / worker threads for the run (0 = the process
  /// default, see set_default_sim_threads).  Any value produces
  /// bit-identical results; clamped to the node count.
  int sim_threads = 0;
  /// TCP stack model for every node (DESIGN.md §13).  Unset = the process
  /// default (see set_default_stack_model), which is StackKind::Fixed
  /// unless `--stack` says otherwise.
  std::optional<knet::StackKind> stack;
  /// Scales iteration counts (and hence run length / cost) relative to the
  /// paper-scale workload definitions.  1.0 reproduces ~300-500 s runs.
  double scale = 1.0;

  /// Hidden-probe density overrides for the perturbation study (0 = keep
  /// the machine defaults).  See DESIGN.md §4.
  std::uint32_t timer_probe_density = 0;
  std::uint32_t tau_inner_pairs = 0;

  /// Model-knob overrides for ablation sweeps (DESIGN.md §4).
  std::optional<double> smp_dilation_override;
  std::optional<std::uint64_t> tcp_cache_penalty_override;

  /// Workload parameter overrides (perturbation study uses its own LU-16
  /// definition calibrated to the paper's ~470 s base time).
  std::optional<apps::LuParams> lu_override;
  std::optional<apps::SweepParams> sweep_override;

  /// Enable kernel + TAU tracing (Figure 2-E style runs).
  bool tracing = false;

  /// Fault/interference injection (default-constructed == fully inert: no
  /// extra events, RNG draws, or cycles anywhere).  Network faults apply
  /// cluster-wide; storms, steals, and the slowdown hit `faults.victims`.
  sim::FaultConfig faults;

  /// Field-by-field equality, down through the structs held here: the run
  /// store's key (DESIGN.md §9), so no field can be left out of it.
  bool operator==(const ChibaRunConfig&) const = default;
};

/// Per-rank merged statistics extracted after a run.
struct RankStats {
  double exec_sec = 0;
  // kernel profile (process-centric view)
  double vol_sched_sec = 0;    // "schedule_vol" inclusive
  double invol_sched_sec = 0;  // "schedule" inclusive
  double irq_sec = 0;          // Irq-group exclusive
  std::uint64_t tcp_calls = 0;  // tcp_sendmsg + tcp_v4_rcv in rank context
  double tcp_excl_sec = 0;
  double tcp_us_per_call = 0;
  // receive path only (tcp_v4_rcv): the cache-penalty-sensitive side
  std::uint64_t tcp_rcv_calls = 0;
  double tcp_rcv_us_per_call = 0;
  // TAU user profile
  double recv_excl_sec = 0;  // MPI_Recv raw exclusive
  std::uint64_t recv_calls = 0;
  // merged bridge rows
  std::map<meas::Group, double> recv_groups;  // kernel groups inside MPI_Recv
  std::uint64_t tcp_calls_in_compute = 0;     // tcp_v4_rcv inside the
                                              // compute phase (Fig 9)
};

struct ChibaRunResult {
  ChibaRunConfig cfg;
  double exec_sec = 0;  // job completion (simulated seconds)
  /// Discrete events the engine executed for the whole run (simulator
  /// throughput metric; also feeds the determinism regression checksum).
  std::uint64_t engine_events = 0;
  std::vector<RankStats> ranks;
  /// Full node snapshot of the anomaly node (node 61) for Figure 7, and of
  /// node 0 otherwise.
  meas::ProfileSnapshot spotlight_node;
  kernel::NodeId spotlight_node_id = 0;
  /// Aggregate KTAU overhead tracking across all nodes (Table 4 inputs).
  double overhead_start_mean = 0, overhead_start_stddev = 0,
         overhead_start_min = 0;
  double overhead_stop_mean = 0, overhead_stop_stddev = 0,
         overhead_stop_min = 0;
  std::uint64_t overhead_samples = 0;
  /// What the fault plan injected (all-zero for a fault-free run).
  sim::FaultPlan::Totals fault_totals;
  /// Per-node injected-interference seconds from each node's snapshot
  /// (analysis::interference_seconds) — the kernel-wide-view signal that
  /// makes degraded nodes stand out.  Indexed by node id.
  std::vector<double> node_interference_sec;
  /// Per-node network-stack counters (retransmits, penalized receives,
  /// read errors, NIC occupancy), harvested from the fabric before
  /// teardown.  Indexed by node id.
  std::vector<analysis::NetNodeCounters> net_nodes;
};

/// Builds, runs, and harvests one Chiba experiment.
ChibaRunResult run_chiba(const ChibaRunConfig& cfg);

/// Paper-scale workload definitions used by run_chiba (exposed for tests
/// and ablations).
apps::LuParams chiba_lu_params(const ChibaRunConfig& cfg);
apps::SweepParams chiba_sweep_params(const ChibaRunConfig& cfg);

/// The node a rank lives on under a configuration's placement.
kernel::NodeId chiba_node_of_rank(ChibaConfig config, int rank, int ranks);

/// Number of nodes a configuration uses for the given rank count.
int chiba_node_count(ChibaConfig config, int ranks);

/// The anomaly node index ("ccn10" analogue).
inline constexpr kernel::NodeId kAnomalyNode = 61;

}  // namespace ktau::expt
