#include "experiments/serve.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
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

/// Reactor i tags its nth request (i << kReactorTagBits) + n + 1, so tags
/// stay unique across reactors while none serves more than
/// 2^kReactorTagBits requests.
constexpr int kReactorTagBits = 20;

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
  const int server_cpus = std::max(1, cfg.server_cpus);

  // Connections go round-robin over the reactors, so reactor 0 is offered
  // the most requests.  Past 2^kReactorTagBits it would reuse reactor 1's
  // tags, and the harvest would merge two requests' kernel paths.
  const std::uint64_t busiest_reactor =
      static_cast<std::uint64_t>((load.conns + server_cpus - 1) /
                                 server_cpus) *
      load.per_conn;
  if (busiest_reactor > (std::uint64_t{1} << kReactorTagBits)) {
    throw std::invalid_argument(
        "run_serve: " + std::to_string(busiest_reactor) +
        " requests for one reactor overflow its " +
        std::to_string(std::uint64_t{1} << kReactorTagBits) +
        " request tags");
  }

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
        static_cast<std::uint32_t>(i) << kReactorTagBits, serve_logs[i],
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
  // Tags are unique across reactors, so every reactor's (tag, event) rows
  // go into one vector, sorted once by (tag, name rank, seconds).  Ranks
  // order the registry's names, so each request's rows come out in
  // (name, seconds) order whatever order the profiles recorded them in.
  Machine& srv = cluster.machine(0);
  const meas::EventRegistry& registry = srv.ktau().registry();
  const double freq = static_cast<double>(srv.config().freq);
  std::vector<meas::EventId> by_name(registry.size());
  std::iota(by_name.begin(), by_name.end(), meas::EventId{0});
  std::sort(by_name.begin(), by_name.end(),
            [&registry](meas::EventId a, meas::EventId b) {
              return registry.info(a).name < registry.info(b).name;
            });
  std::vector<std::uint32_t> name_rank(registry.size());
  for (std::size_t r = 0; r < by_name.size(); ++r) {
    name_rank[by_name[r]] = static_cast<std::uint32_t>(r);
  }

  struct TagRow {
    std::uint64_t tag_rank;  // tag << 32 | name rank
    double sec;
  };
  std::size_t row_count = 0;
  for (const Task* t : reactors) row_count += t->prof.requests().size();
  std::vector<TagRow> tag_rows;
  tag_rows.reserve(row_count);
  std::vector<char> tagged_event(registry.size(), 0);
  for (const Task* t : reactors) {
    for (const auto& [key, m] : t->prof.requests()) {
      const auto ev = static_cast<meas::EventId>(key & 0xFFFFFFFFu);
      tag_rows.push_back(TagRow{(key & 0xFFFFFFFF00000000u) | name_rank[ev],
                                static_cast<double>(m.excl) / freq});
      tagged_event[ev] = 1;
    }
  }
  std::sort(tag_rows.begin(), tag_rows.end(),
            [](const TagRow& a, const TagRow& b) {
              return a.tag_rank != b.tag_rank ? a.tag_rank < b.tag_rank
                                              : a.sec < b.sec;
            });
  std::map<std::string, bool> path_is_interrupt;
  for (std::size_t ev = 0; ev < tagged_event.size(); ++ev) {
    if (tagged_event[ev] == 0) continue;
    const meas::EventInfo& info =
        registry.info(static_cast<meas::EventId>(ev));
    path_is_interrupt[info.name] = info.group == meas::Group::Irq ||
                                   info.group == meas::Group::BottomHalf;
  }

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
      const auto first = std::lower_bound(
          tag_rows.cbegin(), tag_rows.cend(), std::uint64_t{sr.tag} << 32,
          [](const TagRow& r, std::uint64_t k) { return r.tag_rank < k; });
      auto last = first;
      while (last != tag_rows.cend() && (last->tag_rank >> 32) == sr.tag) {
        ++last;
      }
      s.paths.reserve(static_cast<std::size_t>(last - first) + 2);
      double kernel_sec = 0;
      for (auto row = first; row != last; ++row) {
        s.paths.emplace_back(
            registry.info(by_name[row->tag_rank & 0xFFFFFFFFu]).name,
            row->sec);
        kernel_sec += row->sec;
      }
      if (first != last) ++out.tagged_requests;
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
