#include "experiments/chiba.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/views.hpp"
#include "apps/daemons.hpp"
#include "kernel/faults.hpp"
#include "libktau/libktau.hpp"

namespace ktau::expt {

namespace {

int g_default_sim_threads = 1;
knet::StackKind g_default_stack = knet::StackKind::Fixed;

}  // namespace

void set_default_sim_threads(int threads) {
  g_default_sim_threads = threads > 0 ? threads : 1;
}

int default_sim_threads() { return g_default_sim_threads; }

unsigned sim_shards(int sim_threads, int nodes) {
  const int threads = sim_threads > 0 ? sim_threads : g_default_sim_threads;
  return static_cast<unsigned>(std::clamp(threads, 1, nodes));
}

void set_default_stack_model(knet::StackKind kind) { g_default_stack = kind; }

knet::StackKind default_stack_model() { return g_default_stack; }

namespace {

struct Topology {
  int nodes = 0;
  int per_node = 1;
  bool pinned = false;
  kernel::IrqPolicy irq = kernel::IrqPolicy::AllToOne;
  kernel::CpuId irq_target = 0;
  bool faulty_anomaly_node = false;
  bool pin_to_cpu1 = false;  // the 128x1 Pin,IRQ-CPU1 control
};

Topology topology_of(ChibaConfig c, int ranks) {
  Topology t;
  switch (c) {
    case ChibaConfig::C128x1:
      t.nodes = ranks;
      t.per_node = 1;
      break;
    case ChibaConfig::C128x1PinIrqCpu1:
      t.nodes = ranks;
      t.per_node = 1;
      t.pinned = true;
      t.pin_to_cpu1 = true;
      t.irq_target = 1;
      break;
    case ChibaConfig::C64x2Anomaly:
      t.nodes = ranks / 2;
      t.per_node = 2;
      t.faulty_anomaly_node = true;
      break;
    case ChibaConfig::C64x2:
      t.nodes = ranks / 2;
      t.per_node = 2;
      break;
    case ChibaConfig::C64x2Pinned:
      t.nodes = ranks / 2;
      t.per_node = 2;
      t.pinned = true;
      break;
    case ChibaConfig::C64x2PinIbal:
      t.nodes = ranks / 2;
      t.per_node = 2;
      t.pinned = true;
      t.irq = kernel::IrqPolicy::RoundRobin;
      break;
  }
  return t;
}

kernel::NodeId anomaly_node_for(int nodes) {
  return std::min<kernel::NodeId>(kAnomalyNode,
                                  static_cast<kernel::NodeId>(nodes - 1));
}

void apply_perturb(PerturbMode mode, meas::KtauConfig& kc,
                   tau::TauConfig& tc) {
  switch (mode) {
    case PerturbMode::Base:
      kc.compiled_in = false;
      tc.enabled = false;
      break;
    case PerturbMode::KtauOff:
      kc.compiled_in = true;
      kc.runtime_enabled = meas::kNoGroups;
      tc.enabled = false;
      break;
    case PerturbMode::ProfAll:
      kc.compiled_in = true;
      kc.runtime_enabled = meas::kAllGroups;
      tc.enabled = false;
      break;
    case PerturbMode::ProfSched:
      kc.compiled_in = true;
      kc.runtime_enabled = meas::mask_of(meas::Group::Sched);
      tc.enabled = false;
      break;
    case PerturbMode::ProfAllTau:
      kc.compiled_in = true;
      kc.runtime_enabled = meas::kAllGroups;
      tc.enabled = true;
      break;
  }
}

/// Near-square processor grid: px >= py, px * py == ranks.
void grid_for(int ranks, int& px, int& py) {
  py = static_cast<int>(std::sqrt(static_cast<double>(ranks)));
  while (py > 1 && ranks % py != 0) --py;
  px = ranks / py;
}

struct BuiltRun {
  std::unique_ptr<kernel::Cluster> cluster;
  std::unique_ptr<sim::FaultPlan> faults;  // before fabric: fabric points at it
  std::unique_ptr<knet::Fabric> fabric;
  std::vector<std::unique_ptr<kernel::NodeFaultInjector>> injectors;
  std::unique_ptr<mpi::World> world;
  std::unique_ptr<apps::LuApp> lu;
  std::unique_ptr<apps::SweepApp> sweep;
  Topology topo;
};

BuiltRun build(const ChibaRunConfig& cfg) {
  BuiltRun run;
  run.topo = topology_of(cfg.config, cfg.ranks);
  const Topology& topo = run.topo;
  if (topo.nodes <= 0 || cfg.ranks % topo.nodes != 0) {
    throw std::invalid_argument("run_chiba: rank count incompatible with "
                                "configuration");
  }

  knet::NetConfig net;
  net.seed = cfg.seed * 777767ULL + 13;
  net.stack = cfg.stack.value_or(default_stack_model());
  if (cfg.tcp_cache_penalty_override) {
    net.tcp_rcv_cache_penalty = *cfg.tcp_cache_penalty_override;
  }

  // The committed event order (and hence every output byte) is the same for
  // any --sim-threads value; the thread count only partitions the work.
  run.cluster = std::make_unique<kernel::Cluster>(
      kernel::ShardPlan{sim_shards(cfg.sim_threads, topo.nodes)});
  // Pre-size each shard's event pools and the cross-shard mailboxes so the
  // steady-state hot path performs no vector growth.
  run.cluster->reserve_events(16384, 1024);
  const kernel::NodeId anomaly = anomaly_node_for(topo.nodes);
  if (cfg.faults.any()) {
    run.faults = std::make_unique<sim::FaultPlan>(
        cfg.faults, static_cast<std::uint32_t>(topo.nodes));
  }

  tau::TauConfig tau_cfg;
  for (int n = 0; n < topo.nodes; ++n) {
    kernel::MachineConfig mc;
    mc.name = "ccn" + std::to_string(n);
    mc.cpus = 2;
    mc.irq_policy = topo.irq;
    mc.irq_target = topo.irq_target;
    mc.seed = cfg.seed * 1000003ULL + n;
    if (topo.faulty_anomaly_node && n == static_cast<int>(anomaly)) {
      mc.cpus = 1;  // "the OS had erroneously detected only a single CPU"
    }
    if (cfg.timer_probe_density != 0) {
      mc.costs.timer_inner_probes = cfg.timer_probe_density;
    }
    if (cfg.smp_dilation_override) {
      mc.smp_compute_dilation = *cfg.smp_dilation_override;
    }
    if (cfg.tracing) mc.ktau.tracing = true;
    if (cfg.faults.slowdown_active() &&
        cfg.faults.is_victim(static_cast<std::uint32_t>(n))) {
      mc.fault_slowdown = cfg.faults.slowdown;
    }
    apply_perturb(cfg.perturb, mc.ktau, tau_cfg);
    run.cluster->add_machine(mc);
  }

  run.fabric = std::make_unique<knet::Fabric>(*run.cluster, net,
                                              run.faults.get());

  if (run.faults != nullptr && cfg.faults.interference_active()) {
    // One injector per victim node, constructed after the machines and
    // their drivers so the fault events land at the end of each victim's
    // event registry (healthy nodes' registries stay untouched).
    for (int n = 0; n < topo.nodes; ++n) {
      if (!cfg.faults.is_victim(static_cast<std::uint32_t>(n))) continue;
      run.injectors.push_back(std::make_unique<kernel::NodeFaultInjector>(
          run.cluster->machine(n), *run.faults));
    }
  }

  std::vector<mpi::RankPlacement> placement;
  placement.reserve(cfg.ranks);
  for (int r = 0; r < cfg.ranks; ++r) {
    mpi::RankPlacement p;
    p.node = static_cast<kernel::NodeId>(r % topo.nodes);
    const auto slot = static_cast<kernel::CpuId>(r / topo.nodes);
    if (topo.pin_to_cpu1) {
      p.affinity = kernel::cpu_bit(1);
    } else if (topo.pinned) {
      p.affinity = kernel::cpu_bit(slot);
    }
    placement.push_back(p);
  }

  const char* app_name = cfg.workload == Workload::LU ? "lu" : "sweep3d";
  run.world = std::make_unique<mpi::World>(*run.cluster, *run.fabric,
                                           std::move(placement), app_name);

  tau_cfg.inner_pairs = cfg.tau_inner_pairs;
  if (cfg.tracing) tau_cfg.tracing = true;
  if (cfg.workload == Workload::LU) {
    auto params = cfg.lu_override.value_or(chiba_lu_params(cfg));
    params.tau = tau_cfg;
    run.lu = std::make_unique<apps::LuApp>(*run.world, params);
  } else {
    auto params = cfg.sweep_override.value_or(chiba_sweep_params(cfg));
    params.tau = tau_cfg;
    run.sweep = std::make_unique<apps::SweepApp>(*run.world, params);
  }

  if (cfg.daemons) {
    // Daemons run for the life of the experiment; the run loop stops once
    // the MPI job completes.
    for (int n = 0; n < topo.nodes; ++n) {
      apps::spawn_daemon_mix(run.cluster->machine(n), 100'000 * sim::kSecond);
    }
  }
  run.world->launch_all();
  return run;
}

tau::Profiler& profiler_of(BuiltRun& run, int rank) {
  return run.lu ? run.lu->profiler(rank) : run.sweep->profiler(rank);
}

}  // namespace

std::string config_name(ChibaConfig c) {
  switch (c) {
    case ChibaConfig::C128x1:
      return "128x1";
    case ChibaConfig::C64x2Anomaly:
      return "64x2 Anomaly";
    case ChibaConfig::C64x2:
      return "64x2";
    case ChibaConfig::C64x2Pinned:
      return "64x2 Pinned";
    case ChibaConfig::C64x2PinIbal:
      return "64x2 Pin,I-Bal";
    case ChibaConfig::C128x1PinIrqCpu1:
      return "128x1 Pin,IRQ CPU1";
  }
  return "?";
}

std::string perturb_name(PerturbMode m) {
  switch (m) {
    case PerturbMode::Base:
      return "Base";
    case PerturbMode::KtauOff:
      return "Ktau Off";
    case PerturbMode::ProfAll:
      return "ProfAll";
    case PerturbMode::ProfSched:
      return "ProfSched";
    case PerturbMode::ProfAllTau:
      return "ProfAll+Tau";
  }
  return "?";
}

apps::LuParams chiba_lu_params(const ChibaRunConfig& cfg) {
  apps::LuParams p;
  grid_for(cfg.ranks, p.px, p.py);
  // LU class C on 450 MHz / 100 Mb nodes: a fine-grained k-plane pipeline
  // (many small stages, per-stage messages comparable in latency to the
  // stage compute) at ~65-70% per-rank CPU utilisation.  This is the
  // regime in which the paper's configuration effects appear: the 1-CPU
  // anomaly node saturates and gates the job, node sharing (memory bus,
  // NIC, CPU0 interrupts) costs tens of percent, and MPI_Recv dominates
  // user profiles (Figure 3).
  p.iterations = std::max(3, static_cast<int>(std::lround(250 * cfg.scale)));
  p.rhs_time = 280 * sim::kMillisecond;
  p.stage_time = 6 * sim::kMillisecond;
  p.k_blocks = 32;
  p.halo_bytes = 100 * 1024;
  p.pipe_bytes = 12 * 1024;
  p.norm_every = 25;
  p.seed = cfg.seed * 31 + 5;
  return p;
}

apps::SweepParams chiba_sweep_params(const ChibaRunConfig& cfg) {
  apps::SweepParams p;
  grid_for(cfg.ranks, p.px, p.py);
  p.iterations = std::max(2, static_cast<int>(std::lround(60 * cfg.scale)));
  p.source_time = 2000 * sim::kMillisecond;
  p.block_time = 14 * sim::kMillisecond;
  p.flux_time = 120 * sim::kMillisecond;
  p.k_blocks = 6;
  p.face_bytes = 16 * 1024;
  p.seed = cfg.seed * 37 + 11;
  return p;
}

kernel::NodeId chiba_node_of_rank(ChibaConfig config, int rank, int ranks) {
  const Topology topo = topology_of(config, ranks);
  return static_cast<kernel::NodeId>(rank % topo.nodes);
}

int chiba_node_count(ChibaConfig config, int ranks) {
  return topology_of(config, ranks).nodes;
}

ChibaRunResult run_chiba(const ChibaRunConfig& cfg) {
  BuiltRun run = build(cfg);
  kernel::Cluster& cluster = *run.cluster;
  mpi::World& world = *run.world;

  // Run until every rank exits (daemons keep generating events forever, so
  // a plain run() would never return).
  const sim::TimeNs chunk = 5 * sim::kSecond;
  const sim::TimeNs limit = 50'000 * sim::kSecond;
  for (;;) {
    bool all_done = true;
    for (int r = 0; r < world.size(); ++r) {
      if (!world.task(r).exited) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
    if (cluster.now() > limit) {
      throw std::runtime_error("run_chiba: job did not complete (deadlock?)");
    }
    cluster.run_until(cluster.now() + chunk);
  }

  ChibaRunResult result;
  result.cfg = cfg;
  result.exec_sec =
      static_cast<double>(world.job_completion()) / sim::kSecond;
  result.engine_events = cluster.executed_total();

  // Harvest per-node snapshots through the real extraction path.
  const Topology& topo = run.topo;
  std::vector<meas::ProfileSnapshot> snaps;
  snaps.reserve(topo.nodes);
  sim::OnlineStats start_oh, stop_oh;
  for (int n = 0; n < topo.nodes; ++n) {
    kernel::Machine& m = cluster.machine(n);
    user::KtauHandle handle(m.proc());
    snaps.push_back(handle.get_profile(meas::Scope::All));
    // Fold this node's self-measured overhead stats into the totals.
    start_oh.merge(m.ktau().start_overhead());
    stop_oh.merge(m.ktau().stop_overhead());
  }
  result.overhead_samples = start_oh.count();
  result.overhead_start_mean = start_oh.mean();
  result.overhead_start_stddev = start_oh.stddev();
  result.overhead_start_min = start_oh.empty() ? 0.0 : start_oh.min();
  result.overhead_stop_mean = stop_oh.mean();
  result.overhead_stop_stddev = stop_oh.stddev();
  result.overhead_stop_min = stop_oh.empty() ? 0.0 : stop_oh.min();

  if (run.faults != nullptr) result.fault_totals = run.faults->totals();
  result.net_nodes = analysis::net_node_counters(*run.fabric);
  result.node_interference_sec.reserve(snaps.size());
  for (const auto& snap : snaps) {
    result.node_interference_sec.push_back(
        analysis::interference_seconds(snap));
  }

  result.spotlight_node_id = cfg.config == ChibaConfig::C64x2Anomaly
                                 ? anomaly_node_for(topo.nodes)
                                 : 0;
  if (!cfg.faults.victims.empty() && cfg.faults.any()) {
    // Spotlight the first degraded node so the kernel-wide view of a fault
    // scenario shows where the interference landed.
    result.spotlight_node_id = std::min<kernel::NodeId>(
        cfg.faults.victims.front(),
        static_cast<kernel::NodeId>(topo.nodes - 1));
  }
  result.spotlight_node = snaps[result.spotlight_node_id];

  const std::string compute_phase =
      cfg.workload == Workload::LU ? "rhs" : "sweep_compute";

  result.ranks.reserve(world.size());
  for (int r = 0; r < world.size(); ++r) {
    RankStats rs;
    rs.exec_sec =
        static_cast<double>(world.rank_exec_time(r)) / sim::kSecond;
    const auto node = static_cast<kernel::NodeId>(r % topo.nodes);
    const meas::ProfileSnapshot& snap = snaps[node];
    if (cfg.perturb != PerturbMode::Base) {
      const auto& task = analysis::task_of(snap, world.task(r).pid);
      rs.vol_sched_sec =
          analysis::named_metrics(snap, task, "schedule_vol").incl_sec;
      rs.invol_sched_sec =
          analysis::named_metrics(snap, task, "schedule").incl_sec;
      const auto groups = analysis::group_breakdown(snap, task);
      const auto it = groups.find(meas::Group::Irq);
      rs.irq_sec = it == groups.end() ? 0.0 : it->second;

      const auto send = analysis::named_metrics(snap, task, "tcp_sendmsg");
      const auto rcv = analysis::named_metrics(snap, task, "tcp_v4_rcv");
      rs.tcp_calls = send.count + rcv.count;
      rs.tcp_excl_sec = send.excl_sec + rcv.excl_sec;
      if (rs.tcp_calls > 0) {
        rs.tcp_us_per_call =
            rs.tcp_excl_sec / static_cast<double>(rs.tcp_calls) * 1e6;
      }
      rs.tcp_rcv_calls = rcv.count;
      if (rcv.count > 0) {
        rs.tcp_rcv_us_per_call =
            rcv.excl_sec / static_cast<double>(rcv.count) * 1e6;
      }

      tau::Profiler& tau = profiler_of(run, r);
      if (tau.config().enabled) {
        const auto f_recv = tau.find("MPI_Recv");
        rs.recv_excl_sec = static_cast<double>(tau.metrics(f_recv).excl) /
                           static_cast<double>(snap.cpu_freq);
        rs.recv_calls = tau.metrics(f_recv).count;
        rs.recv_groups = analysis::groups_within_user(
            snap, task, tau.ktau_event(f_recv));
        const auto f_phase = tau.find(compute_phase);
        const auto phase_ev = tau.ktau_event(f_phase);
        for (const auto& krow :
             analysis::kernel_within_user(snap, task, phase_ev)) {
          if (krow.name == "tcp_v4_rcv") rs.tcp_calls_in_compute += krow.count;
        }
      }
    }
    result.ranks.push_back(std::move(rs));
  }
  return result;
}

}  // namespace ktau::expt
