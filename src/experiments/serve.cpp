#include "experiments/serve.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/serve.hpp"
#include "experiments/chiba.hpp"
#include "kernel/cluster.hpp"
#include "kernel/faults.hpp"
#include "knet/stack.hpp"
#include "sim/time.hpp"

namespace ktau::expt {
namespace {

using kernel::Cluster;
using kernel::Machine;
using kernel::MachineConfig;
using kernel::Task;

/// Client nodes fanning requests into the server (node 0).
constexpr int kClientNodes = 4;

struct Load {
  int conns;                 // connections, round-robin over client nodes
  std::uint32_t per_conn;    // requests per connection
  double rate_hz_per_conn;   // open loop only: Poisson rate per connection
};

Load serve_load(const ServeConfig& cfg) {
  Load l;
  if (cfg.mode == ServeMode::Closed) {
    // Enough closed clients to keep any server size saturated: offered
    // load is bounded by clients / RTT, far above a 4-CPU server's
    // capacity at a 300 us mean service time.
    l.conns = 24;
    l.per_conn = static_cast<std::uint32_t>(
        std::max(20L, std::lround(200 * cfg.scale)));
    l.rate_hz_per_conn = 0;
  } else {
    // ~1200 req/s aggregate against a 2-CPU server (~30% utilization):
    // low enough that queueing ripple stays out of the median, so storm
    // and loss inflation stand out against a short quiet tail — and the
    // slowest requests are the ones whose own service window was hit,
    // which is what the tagged attribution can name.
    l.conns = 8;
    l.per_conn = static_cast<std::uint32_t>(
        std::max(60L, std::lround(600 * cfg.scale)));
    l.rate_hz_per_conn = 150.0;
  }
  return l;
}

sim::FaultConfig serve_faults(const ServeConfig& cfg) {
  sim::FaultConfig fc;
  fc.seed = cfg.seed * 99991ULL + 13;
  fc.drop_prob = cfg.drop_prob;
  // Same RTO shortening as the fault/congestion scenarios: keeps several
  // recovery rounds inside a bench-scale run while an RTO stall still
  // dwarfs the millisecond-scale quiet tail.
  fc.rto = 50 * sim::kMillisecond;
  if (cfg.irq_storm) {
    // ~40 bursts/s of 80 spurious IRQs at the server.  A burst spans
    // ~2 ms: short enough that the damage lands inside the service window
    // of whatever requests are on-CPU (handler time + cache disruption,
    // all probe-tagged to those requests) instead of building a long
    // queue of clean-window stragglers the attribution could not name.
    fc.storm_rate_hz = 40.0;
    fc.storm_len = 80;
    fc.victims = {0};
  }
  return fc;
}

}  // namespace

std::string serve_mode_name(ServeMode m) {
  return m == ServeMode::Closed ? "closed" : "open";
}

ServeResult run_serve(const ServeConfig& cfg) {
  const int nodes = 1 + kClientNodes;
  const Load load = serve_load(cfg);

  knet::NetConfig net;
  net.seed = cfg.seed * 777767ULL + 101;
  net.stack = cfg.stack;

  Cluster cluster(kernel::ShardPlan{sim_shards(cfg.sim_threads, nodes)});
  cluster.reserve_events(8192, 512);

  const sim::FaultConfig fc = serve_faults(cfg);
  std::unique_ptr<sim::FaultPlan> faults;
  if (fc.any()) {
    faults = std::make_unique<sim::FaultPlan>(
        fc, static_cast<std::uint32_t>(nodes));
  }

  const int server_cpus = std::max(1, cfg.server_cpus);
  for (int n = 0; n < nodes; ++n) {
    MachineConfig mc;
    mc.name = n == 0 ? "srv" : "cli" + std::to_string(n);
    mc.cpus = n == 0 ? static_cast<std::uint32_t>(server_cpus) : 2;
    mc.seed = cfg.seed * 1000003ULL + n;
    if (n == 0) {
      // One reactor per CPU needs the NIC (and storm) interrupt load to
      // scale with CPUs, not pile onto reactor 0.
      mc.irq_policy = kernel::IrqPolicy::RoundRobin;
    }
    cluster.add_machine(mc);
  }
  knet::Fabric fabric(cluster, net, faults.get());

  std::unique_ptr<kernel::NodeFaultInjector> injector;
  if (faults != nullptr && fc.interference_active()) {
    injector = std::make_unique<kernel::NodeFaultInjector>(cluster.machine(0),
                                                           *faults);
  }

  const apps::ServeShape shape;  // 128 B -> 256 B, 300 us +/- 50% service

  // Logs are referenced by running tasks: size everything up front, never
  // resize after spawning.
  std::vector<apps::ClientLog> client_logs(load.conns);
  std::vector<apps::ServeLog> serve_logs(server_cpus);
  std::vector<std::vector<int>> reactor_fds(server_cpus);
  std::map<int, int> conn_of_server_fd;  // server-side fd -> connection idx

  ServeResult out;
  for (int j = 0; j < load.conns; ++j) {
    const auto cnode = static_cast<kernel::NodeId>(1 + j % kClientNodes);
    const auto conn = fabric.connect(cnode, 0);
    conn_of_server_fd[conn.fd_b] = j;
    reactor_fds[j % server_cpus].push_back(conn.fd_b);
    Machine& cm = cluster.machine(cnode);
    if (cfg.mode == ServeMode::Closed) {
      apps::spawn_closed_client(cm, conn.fd_a, shape, load.per_conn,
                                client_logs[j], "cli" + std::to_string(j));
      out.requests_offered += load.per_conn;
    } else {
      auto arrivals = apps::poisson_arrivals(
          cfg.seed * 424243ULL + static_cast<std::uint64_t>(j),
          load.rate_hz_per_conn, load.per_conn, sim::kMillisecond);
      out.requests_offered += arrivals.size();
      apps::spawn_open_client(cm, conn.fd_a, shape, std::move(arrivals),
                              client_logs[j], "cli" + std::to_string(j));
    }
  }

  std::vector<Task*> reactors;
  for (int i = 0; i < server_cpus; ++i) {
    if (reactor_fds[i].empty()) continue;
    reactors.push_back(&apps::spawn_reactor(
        cluster.machine(0), reactor_fds[i], shape,
        cfg.seed * 31337ULL + static_cast<std::uint64_t>(i),
        static_cast<std::uint32_t>(i) << 20, serve_logs[i],
        kernel::cpu_bit(static_cast<kernel::CpuId>(i)),
        "reactor" + std::to_string(i)));
  }

  // Reactors serve forever and the storm plane re-arms itself, so a plain
  // run() would never return: chunk until every client record is in.
  const sim::TimeNs chunk = sim::kSecond;
  const sim::TimeNs limit = 50'000 * sim::kSecond;
  for (;;) {
    std::uint64_t completed = 0;
    for (const auto& log : client_logs) completed += log.requests.size();
    if (completed >= out.requests_offered) {
      out.requests_completed = completed;
      break;
    }
    if (cluster.now() > limit) {
      throw std::runtime_error("run_serve: requests did not complete");
    }
    cluster.run_until(cluster.now() + chunk);
  }
  out.engine_events = cluster.executed_total();

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

  // -- per-request kernel attribution ---------------------------------------
  // Tags are globally unique across reactors, so the live profiles' tagged
  // (tag, event) metrics fold into one tag-keyed table.  Path lists are
  // sorted by name: FlatKeyMap iteration order is an implementation detail.
  Machine& srv = cluster.machine(0);
  const double freq = static_cast<double>(srv.config().freq);
  std::map<std::uint32_t,
           std::vector<std::pair<std::string, double>>> tag_paths;
  std::map<std::string, bool> path_is_interrupt;
  for (const Task* t : reactors) {
    for (const auto& [key, m] : t->prof.requests()) {
      const auto tag = static_cast<std::uint32_t>(key >> 32);
      const auto ev = static_cast<meas::EventId>(key & 0xFFFFFFFFu);
      const meas::EventInfo& info = srv.ktau().info(ev);
      const double sec = static_cast<double>(m.excl) / freq;
      tag_paths[tag].emplace_back(info.name, sec);
      path_is_interrupt[info.name] = info.group == meas::Group::Irq ||
                                     info.group == meas::Group::BottomHalf;
    }
  }
  for (auto& [tag, paths] : tag_paths) std::sort(paths.begin(), paths.end());

  // Join server records to client-observed latency: responses on one
  // connection are FIFO, so server sequence n on a connection pairs with
  // the client's nth record.
  std::vector<analysis::RequestSample> samples;
  samples.reserve(out.requests_completed);
  analysis::QuantileEstimator lat;
  for (const auto& slog : serve_logs) {
    for (const apps::ServedRequest& sr : slog.served) {
      const auto& recs =
          client_logs[conn_of_server_fd.at(sr.fd)].requests;
      if (sr.seq >= recs.size()) continue;  // response still on the wire
      const auto& cr = recs[sr.seq];
      analysis::RequestSample s;
      s.latency_sec =
          static_cast<double>(cr.completed - cr.scheduled) / sim::kSecond;
      double kernel_sec = 0;
      if (const auto it = tag_paths.find(sr.tag); it != tag_paths.end()) {
        s.paths = it->second;
        for (const auto& [name, sec] : s.paths) kernel_sec += sec;
        ++out.tagged_requests;
      }
      out.tagged_kernel_sec += kernel_sec;
      const double window =
          static_cast<double>(sr.done - sr.picked_up) / sim::kSecond;
      const double service =
          static_cast<double>(sr.service) / sim::kSecond;
      s.paths.emplace_back("user_service", service);
      s.paths.emplace_back("other",
                           std::max(0.0, window - service - kernel_sec));
      lat.add(s.latency_sec);
      samples.push_back(std::move(s));
    }
  }
  out.latency = lat.tiles();
  out.tail = analysis::tail_breakdown(samples, 0.99);
  for (const auto& p : out.tail.paths) {
    const auto it = path_is_interrupt.find(p.name);
    if (it == path_is_interrupt.end()) continue;  // pseudo-path
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
  return out;
}

}  // namespace ktau::expt
