#include "phased.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analysis/quantile.hpp"
#include "analysis/views.hpp"
#include "apps/daemons.hpp"
#include "apps/serve.hpp"
#include "kernel/faults.hpp"
#include "libktau/libktau.hpp"

namespace perfbench {
namespace {

using namespace ktau;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void count_engine(kernel::Cluster& cluster, LayerCounts& l) {
  const sim::ShardedEngine& eng = cluster.sharded_engine();
  l.events = cluster.executed_total();
  l.epochs = eng.epochs();
  l.pool_grows = eng.pool_grows_total();
  l.mailbox_grows = eng.mailbox_grows();
}

void count_kernel_paths(const meas::ProfileSnapshot& snap, LayerCounts& l) {
  for (const auto& row : analysis::aggregate_events(snap)) {
    if (row.group == meas::Group::Sched) l.sched_calls += row.count;
    if (row.group == meas::Group::Irq) l.irq_calls += row.count;
  }
}

/// Extracts every node's full profile through libKtau, timing each read.
std::vector<meas::ProfileSnapshot> extract_all(kernel::Cluster& cluster,
                                               LayerCounts& l) {
  std::vector<meas::ProfileSnapshot> snaps;
  snaps.reserve(cluster.size());
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    kernel::Machine& m = cluster.machine(static_cast<kernel::NodeId>(n));
    user::KtauHandle handle(m.proc());
    const auto t0 = Clock::now();
    snaps.push_back(handle.get_profile(meas::Scope::All));
    l.get_profile_s += since(t0);
    l.wire_bytes += handle.last_profile_wire_bytes();
    l.probe_pairs += m.ktau().start_overhead().count();
  }
  return snaps;
}

template <typename T>
std::string differ(const char* field, const T& a, const T& b) {
  return a == b ? std::string() : std::string(field);
}

}  // namespace

PhasedChiba run_phased_chiba(const expt::ChibaRunConfig& cfg) {
  using expt::ChibaConfig;
  if (cfg.config != ChibaConfig::C64x2Anomaly ||
      cfg.workload != expt::Workload::LU || cfg.faults.any() ||
      cfg.tracing || !cfg.daemons || cfg.sim_threads != 1 ||
      cfg.timer_probe_density != 0 || cfg.tau_inner_pairs != 0 ||
      cfg.smp_dilation_override || cfg.tcp_cache_penalty_override ||
      cfg.lu_override || cfg.ranks % 2 != 0) {
    throw std::invalid_argument(
        "run_phased_chiba: only fault-free 64x2 Anomaly LU on one thread");
  }
  PhasedChiba out;
  LayerCounts& l = out.layers;

  // -- build: the constructors run_chiba uses, in the same order ----------
  auto t0 = Clock::now();
  const int nodes = cfg.ranks / 2;
  const auto anomaly = std::min<kernel::NodeId>(
      expt::kAnomalyNode, static_cast<kernel::NodeId>(nodes - 1));
  knet::NetConfig net;
  net.seed = cfg.seed * 777767ULL + 13;
  net.stack = cfg.stack.value_or(expt::default_stack_model());
  auto cluster =
      std::make_unique<kernel::Cluster>(kernel::ShardPlan{1, net.latency});
  cluster->reserve_events(16384, 1024);

  tau::TauConfig tau_cfg;
  const bool base = cfg.perturb == expt::PerturbMode::Base;
  if (cfg.perturb != expt::PerturbMode::ProfAllTau && !base) {
    throw std::invalid_argument("run_phased_chiba: ProfAll+Tau or Base only");
  }
  for (int n = 0; n < nodes; ++n) {
    kernel::MachineConfig mc;
    mc.name = "ccn" + std::to_string(n);
    mc.cpus = n == static_cast<int>(anomaly) ? 1 : 2;
    mc.seed = cfg.seed * 1000003ULL + n;
    mc.ktau.compiled_in = !base;
    if (!base) mc.ktau.runtime_enabled = meas::kAllGroups;
    cluster->add_machine(mc);
  }
  tau_cfg.enabled = !base;
  knet::Fabric fabric(*cluster, net, nullptr);

  std::vector<mpi::RankPlacement> placement;
  placement.reserve(cfg.ranks);
  for (int r = 0; r < cfg.ranks; ++r) {
    mpi::RankPlacement p;
    p.node = static_cast<kernel::NodeId>(r % nodes);
    placement.push_back(p);
  }
  mpi::World world(*cluster, fabric, std::move(placement), "lu");
  auto params = expt::chiba_lu_params(cfg);
  params.tau = tau_cfg;
  apps::LuApp lu(world, params);
  for (int n = 0; n < nodes; ++n) {
    apps::spawn_daemon_mix(cluster->machine(n), 100'000 * sim::kSecond);
  }
  world.launch_all();
  l.build_s = since(t0);

  // -- run in run_chiba's 5-simulated-second chunks ------------------------
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
    if (cluster->now() > limit) {
      throw std::runtime_error("run_phased_chiba: job did not complete");
    }
    t0 = Clock::now();
    cluster->run_until(cluster->now() + chunk);
    l.run_until_s += since(t0);
  }
  count_engine(*cluster, l);

  expt::ChibaRunResult& result = out.result;
  result.cfg = cfg;
  result.exec_sec = static_cast<double>(world.job_completion()) / sim::kSecond;
  result.engine_events = cluster->executed_total();

  // -- extraction through libKtau -------------------------------------------
  std::vector<meas::ProfileSnapshot> snaps = extract_all(*cluster, l);

  // -- harvest: the views run_chiba applies --------------------------------
  t0 = Clock::now();
  sim::OnlineStats start_oh, stop_oh;
  for (int n = 0; n < nodes; ++n) {
    start_oh.merge(cluster->machine(n).ktau().start_overhead());
    stop_oh.merge(cluster->machine(n).ktau().stop_overhead());
  }
  result.overhead_samples = start_oh.count();
  result.overhead_start_mean = start_oh.mean();
  result.overhead_start_stddev = start_oh.stddev();
  result.overhead_start_min = start_oh.empty() ? 0.0 : start_oh.min();
  result.overhead_stop_mean = stop_oh.mean();
  result.overhead_stop_stddev = stop_oh.stddev();
  result.overhead_stop_min = stop_oh.empty() ? 0.0 : stop_oh.min();
  result.net_nodes = analysis::net_node_counters(fabric);
  for (const auto& snap : snaps) {
    result.node_interference_sec.push_back(
        analysis::interference_seconds(snap));
  }
  result.spotlight_node_id = anomaly;
  result.spotlight_node = snaps[anomaly];

  result.ranks.reserve(world.size());
  for (int r = 0; r < world.size(); ++r) {
    expt::RankStats rs;
    rs.exec_sec = static_cast<double>(world.rank_exec_time(r)) / sim::kSecond;
    const meas::ProfileSnapshot& snap = snaps[r % nodes];
    if (!base) {
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
      tau::Profiler& prof = lu.profiler(r);
      const auto f_recv = prof.find("MPI_Recv");
      rs.recv_excl_sec = static_cast<double>(prof.metrics(f_recv).excl) /
                         static_cast<double>(snap.cpu_freq);
      rs.recv_calls = prof.metrics(f_recv).count;
      rs.recv_groups =
          analysis::groups_within_user(snap, task, prof.ktau_event(f_recv));
      const auto phase_ev = prof.ktau_event(prof.find("rhs"));
      for (const auto& krow :
           analysis::kernel_within_user(snap, task, phase_ev)) {
        if (krow.name == "tcp_v4_rcv") rs.tcp_calls_in_compute += krow.count;
      }
    }
    result.ranks.push_back(std::move(rs));
  }
  l.harvest_s = since(t0);

  for (const auto& snap : snaps) count_kernel_paths(snap, l);
  return out;
}

PhasedServe run_phased_serve(const expt::ServeConfig& cfg, bool base) {
  // Mirrors run_serve's load, fault and topology constants.
  constexpr int kClientNodes = 4;
  const int nodes = 1 + kClientNodes;
  const bool closed = cfg.mode == expt::ServeMode::Closed;
  const int conns = closed ? 24 : 8;
  const auto per_conn = static_cast<std::uint32_t>(
      closed ? std::max(20L, std::lround(200 * cfg.scale))
             : std::max(60L, std::lround(600 * cfg.scale)));
  if (cfg.sim_threads != 1) {
    throw std::invalid_argument("run_phased_serve: one thread only");
  }

  PhasedServe phased;
  expt::ServeResult& out = phased.result;
  LayerCounts& l = phased.layers;
  auto t0 = Clock::now();
  knet::NetConfig net;
  net.seed = cfg.seed * 777767ULL + 101;
  net.stack = cfg.stack;
  kernel::Cluster cluster(kernel::ShardPlan{1, net.latency});
  cluster.reserve_events(8192, 512);

  sim::FaultConfig fc;
  fc.seed = cfg.seed * 99991ULL + 13;
  fc.drop_prob = cfg.drop_prob;
  fc.rto = 50 * sim::kMillisecond;
  if (cfg.irq_storm) {
    fc.storm_rate_hz = 40.0;
    fc.storm_len = 80;
    fc.victims = {0};
  }
  std::unique_ptr<sim::FaultPlan> faults;
  if (fc.any()) {
    faults = std::make_unique<sim::FaultPlan>(
        fc, static_cast<std::uint32_t>(nodes));
  }
  const int server_cpus = std::max(1, cfg.server_cpus);
  for (int n = 0; n < nodes; ++n) {
    kernel::MachineConfig mc;
    mc.name = n == 0 ? "srv" : "cli" + std::to_string(n);
    mc.cpus = n == 0 ? static_cast<std::uint32_t>(server_cpus) : 2;
    mc.seed = cfg.seed * 1000003ULL + n;
    if (n == 0) mc.irq_policy = kernel::IrqPolicy::RoundRobin;
    if (base) mc.ktau.compiled_in = false;
    cluster.add_machine(mc);
  }
  knet::Fabric fabric(cluster, net, faults.get());
  std::unique_ptr<kernel::NodeFaultInjector> injector;
  if (faults != nullptr && fc.interference_active()) {
    injector = std::make_unique<kernel::NodeFaultInjector>(cluster.machine(0),
                                                           *faults);
  }

  const apps::ServeShape shape;
  std::vector<apps::ClientLog> client_logs(conns);
  std::vector<apps::ServeLog> serve_logs(server_cpus);
  std::vector<std::vector<int>> reactor_fds(server_cpus);
  std::map<int, int> conn_of_server_fd;
  for (int j = 0; j < conns; ++j) {
    const auto cnode = static_cast<kernel::NodeId>(1 + j % kClientNodes);
    const auto conn = fabric.connect(cnode, 0);
    conn_of_server_fd[conn.fd_b] = j;
    reactor_fds[j % server_cpus].push_back(conn.fd_b);
    kernel::Machine& cm = cluster.machine(cnode);
    if (closed) {
      apps::spawn_closed_client(cm, conn.fd_a, shape, per_conn,
                                client_logs[j], "cli" + std::to_string(j));
      out.requests_offered += per_conn;
    } else {
      auto arrivals = apps::poisson_arrivals(
          cfg.seed * 424243ULL + static_cast<std::uint64_t>(j), 150.0,
          per_conn, sim::kMillisecond);
      out.requests_offered += arrivals.size();
      apps::spawn_open_client(cm, conn.fd_a, shape, std::move(arrivals),
                              client_logs[j], "cli" + std::to_string(j));
    }
  }
  std::vector<kernel::Task*> reactors;
  for (int i = 0; i < server_cpus; ++i) {
    if (reactor_fds[i].empty()) continue;
    reactors.push_back(&apps::spawn_reactor(
        cluster.machine(0), reactor_fds[i], shape,
        cfg.seed * 31337ULL + static_cast<std::uint64_t>(i),
        static_cast<std::uint32_t>(i) << 20, serve_logs[i],
        kernel::cpu_bit(static_cast<kernel::CpuId>(i)),
        "reactor" + std::to_string(i)));
  }
  l.build_s = since(t0);

  const sim::TimeNs limit = 50'000 * sim::kSecond;
  for (;;) {
    std::uint64_t completed = 0;
    for (const auto& log : client_logs) completed += log.requests.size();
    if (completed >= out.requests_offered) {
      out.requests_completed = completed;
      break;
    }
    if (cluster.now() > limit) {
      throw std::runtime_error("run_phased_serve: requests did not complete");
    }
    t0 = Clock::now();
    cluster.run_until(cluster.now() + sim::kSecond);
    l.run_until_s += since(t0);
  }
  count_engine(cluster, l);
  out.engine_events = cluster.executed_total();

  // -- harvest: run_serve's latency tiles and per-request attribution -----
  t0 = Clock::now();
  sim::TimeNs first_issue = 0, last_done = 0;
  bool any = false;
  for (const auto& log : client_logs) {
    for (const auto& r : log.requests) {
      if (!any || r.scheduled < first_issue) first_issue = r.scheduled;
      if (!any || r.completed > last_done) last_done = r.completed;
      any = true;
    }
  }
  out.exec_sec = static_cast<double>(last_done) / sim::kSecond;
  if (last_done > first_issue) {
    out.throughput_rps =
        static_cast<double>(out.requests_completed) /
        (static_cast<double>(last_done - first_issue) / sim::kSecond);
  }

  kernel::Machine& srv = cluster.machine(0);
  const double freq = static_cast<double>(srv.config().freq);
  std::map<std::uint32_t, std::vector<std::pair<std::string, double>>>
      tag_paths;
  std::map<std::string, bool> path_is_interrupt;
  for (const kernel::Task* t : reactors) {
    for (const auto& [key, m] : t->prof.requests()) {
      const auto tag = static_cast<std::uint32_t>(key >> 32);
      const auto ev = static_cast<meas::EventId>(key & 0xFFFFFFFFu);
      const meas::EventInfo& info = srv.ktau().info(ev);
      tag_paths[tag].emplace_back(info.name,
                                  static_cast<double>(m.excl) / freq);
      path_is_interrupt[info.name] = info.group == meas::Group::Irq ||
                                     info.group == meas::Group::BottomHalf;
    }
  }
  for (auto& [tag, paths] : tag_paths) std::sort(paths.begin(), paths.end());

  std::vector<analysis::RequestSample> samples;
  samples.reserve(out.requests_completed);
  analysis::QuantileEstimator lat;
  for (const auto& slog : serve_logs) {
    for (const apps::ServedRequest& sr : slog.served) {
      const auto& recs = client_logs[conn_of_server_fd.at(sr.fd)].requests;
      if (sr.seq >= recs.size()) continue;
      const auto& cr = recs[sr.seq];
      analysis::RequestSample smp;
      smp.latency_sec =
          static_cast<double>(cr.completed - cr.scheduled) / sim::kSecond;
      double kernel_sec = 0;
      if (const auto it = tag_paths.find(sr.tag); it != tag_paths.end()) {
        smp.paths = it->second;
        for (const auto& [name, sec] : smp.paths) kernel_sec += sec;
        ++out.tagged_requests;
      }
      out.tagged_kernel_sec += kernel_sec;
      const double window =
          static_cast<double>(sr.done - sr.picked_up) / sim::kSecond;
      const double service = static_cast<double>(sr.service) / sim::kSecond;
      smp.paths.emplace_back("user_service", service);
      smp.paths.emplace_back("other",
                             std::max(0.0, window - service - kernel_sec));
      lat.add(smp.latency_sec);
      samples.push_back(std::move(smp));
    }
  }
  out.latency = lat.tiles();
  out.tail = analysis::tail_breakdown(samples, 0.99);
  for (const auto& p : out.tail.paths) {
    const auto it = path_is_interrupt.find(p.name);
    if (it == path_is_interrupt.end()) continue;
    if (out.top_tail_kernel_path.empty()) {
      out.top_tail_kernel_path = p.name;
      out.top_tail_path_is_interrupt = it->second;
    }
    if (it->second) {
      out.tail_interrupt_sec_per_req += p.tail_sec_per_req;
      out.body_interrupt_sec_per_req += p.body_sec_per_req;
    }
  }
  const auto rows = analysis::net_node_counters(fabric);
  out.server_net = rows.at(0);
  out.net = analysis::net_counter_totals(rows);
  if (faults != nullptr) out.fault_totals = faults->totals();
  l.harvest_s = since(t0);

  // -- extraction through libKtau (run_serve reads live profiles instead) --
  for (const auto& snap : extract_all(cluster, l)) count_kernel_paths(snap, l);
  return phased;
}

std::string chiba_mismatch(const expt::ChibaRunResult& a,
                           const expt::ChibaRunResult& b) {
  std::string d;
  auto check = [&d](std::string why) {
    if (d.empty()) d = std::move(why);
  };
  check(differ("exec_sec", a.exec_sec, b.exec_sec));
  check(differ("engine_events", a.engine_events, b.engine_events));
  check(differ("overhead_samples", a.overhead_samples, b.overhead_samples));
  check(differ("overhead_start_mean", a.overhead_start_mean,
               b.overhead_start_mean));
  check(differ("overhead_start_stddev", a.overhead_start_stddev,
               b.overhead_start_stddev));
  check(differ("overhead_start_min", a.overhead_start_min,
               b.overhead_start_min));
  check(differ("overhead_stop_mean", a.overhead_stop_mean,
               b.overhead_stop_mean));
  check(differ("overhead_stop_stddev", a.overhead_stop_stddev,
               b.overhead_stop_stddev));
  check(differ("overhead_stop_min", a.overhead_stop_min,
               b.overhead_stop_min));
  check(differ("spotlight_node_id", a.spotlight_node_id, b.spotlight_node_id));
  check(differ("node_interference_sec", a.node_interference_sec,
               b.node_interference_sec));
  check(differ("fault_totals.segments_dropped",
               a.fault_totals.segments_dropped,
               b.fault_totals.segments_dropped));
  check(differ("net_nodes", a.net_nodes.size(), b.net_nodes.size()));
  for (std::size_t n = 0; d.empty() && n < a.net_nodes.size(); ++n) {
    const auto& x = a.net_nodes[n];
    const auto& y = b.net_nodes[n];
    check(differ("net_nodes.rx_segments", x.rx_segments, y.rx_segments));
    check(differ("net_nodes.rx_penalized", x.rx_penalized, y.rx_penalized));
    check(differ("net_nodes.retransmits", x.retransmits, y.retransmits));
    check(differ("net_nodes.acks_received", x.acks_received,
                 y.acks_received));
    check(differ("net_nodes.read_errors", x.read_errors, y.read_errors));
    check(differ("net_nodes.nic_tx_sec", x.nic_tx_sec, y.nic_tx_sec));
  }
  check(differ("ranks", a.ranks.size(), b.ranks.size()));
  for (std::size_t r = 0; d.empty() && r < a.ranks.size(); ++r) {
    const auto& x = a.ranks[r];
    const auto& y = b.ranks[r];
    check(differ("ranks.exec_sec", x.exec_sec, y.exec_sec));
    check(differ("ranks.vol_sched_sec", x.vol_sched_sec, y.vol_sched_sec));
    check(differ("ranks.invol_sched_sec", x.invol_sched_sec,
                 y.invol_sched_sec));
    check(differ("ranks.irq_sec", x.irq_sec, y.irq_sec));
    check(differ("ranks.tcp_calls", x.tcp_calls, y.tcp_calls));
    check(differ("ranks.tcp_excl_sec", x.tcp_excl_sec, y.tcp_excl_sec));
    check(differ("ranks.tcp_us_per_call", x.tcp_us_per_call,
                 y.tcp_us_per_call));
    check(differ("ranks.tcp_rcv_calls", x.tcp_rcv_calls, y.tcp_rcv_calls));
    check(differ("ranks.tcp_rcv_us_per_call", x.tcp_rcv_us_per_call,
                 y.tcp_rcv_us_per_call));
    check(differ("ranks.recv_excl_sec", x.recv_excl_sec, y.recv_excl_sec));
    check(differ("ranks.recv_calls", x.recv_calls, y.recv_calls));
    check(differ("ranks.recv_groups", x.recv_groups, y.recv_groups));
    check(differ("ranks.tcp_calls_in_compute", x.tcp_calls_in_compute,
                 y.tcp_calls_in_compute));
  }
  const auto rows_a = analysis::aggregate_events(a.spotlight_node);
  const auto rows_b = analysis::aggregate_events(b.spotlight_node);
  check(differ("spotlight_node.events", rows_a.size(), rows_b.size()));
  for (std::size_t i = 0; d.empty() && i < rows_a.size(); ++i) {
    check(differ("spotlight_node.name", rows_a[i].name, rows_b[i].name));
    check(differ("spotlight_node.count", rows_a[i].count, rows_b[i].count));
    check(differ("spotlight_node.excl_sec", rows_a[i].excl_sec,
                 rows_b[i].excl_sec));
  }
  check(differ("spotlight_node.tasks", a.spotlight_node.tasks.size(),
               b.spotlight_node.tasks.size()));
  return d;
}

std::string serve_mismatch(const expt::ServeResult& a,
                           const expt::ServeResult& b) {
  std::string d;
  auto check = [&d](std::string why) {
    if (d.empty()) d = std::move(why);
  };
  check(differ("requests_offered", a.requests_offered, b.requests_offered));
  check(differ("requests_completed", a.requests_completed,
               b.requests_completed));
  check(differ("exec_sec", a.exec_sec, b.exec_sec));
  check(differ("throughput_rps", a.throughput_rps, b.throughput_rps));
  check(differ("engine_events", a.engine_events, b.engine_events));
  check(differ("latency.count", a.latency.count, b.latency.count));
  check(differ("latency.p50", a.latency.p50, b.latency.p50));
  check(differ("latency.p95", a.latency.p95, b.latency.p95));
  check(differ("latency.p99", a.latency.p99, b.latency.p99));
  check(differ("latency.p999", a.latency.p999, b.latency.p999));
  check(differ("tail.threshold_sec", a.tail.threshold_sec,
               b.tail.threshold_sec));
  check(differ("tail.paths", a.tail.paths.size(), b.tail.paths.size()));
  check(differ("tail_interrupt_sec_per_req", a.tail_interrupt_sec_per_req,
               b.tail_interrupt_sec_per_req));
  check(differ("body_interrupt_sec_per_req", a.body_interrupt_sec_per_req,
               b.body_interrupt_sec_per_req));
  check(differ("top_tail_kernel_path", a.top_tail_kernel_path,
               b.top_tail_kernel_path));
  check(differ("tagged_kernel_sec", a.tagged_kernel_sec, b.tagged_kernel_sec));
  check(differ("tagged_requests", a.tagged_requests, b.tagged_requests));
  check(differ("net.rx_segments", a.net.rx_segments, b.net.rx_segments));
  check(differ("net.retransmits", a.net.retransmits, b.net.retransmits));
  check(differ("net.acks_received", a.net.acks_received,
               b.net.acks_received));
  check(differ("net.nic_tx_sec", a.net.nic_tx_sec, b.net.nic_tx_sec));
  check(differ("server_net.rx_segments", a.server_net.rx_segments,
               b.server_net.rx_segments));
  check(differ("fault_totals.storm_irqs", a.fault_totals.storm_irqs,
               b.fault_totals.storm_irqs));
  check(differ("fault_totals.retransmits", a.fault_totals.retransmits,
               b.fault_totals.retransmits));
  return d;
}

}  // namespace perfbench
