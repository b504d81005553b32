#include "experiments/congestion.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "analysis/views.hpp"
#include "experiments/chiba.hpp"
#include "kernel/cluster.hpp"
#include "knet/stack.hpp"
#include "libktau/libktau.hpp"
#include "sim/time.hpp"

namespace ktau::expt {
namespace {

using kernel::Cluster;
using kernel::Machine;
using kernel::MachineConfig;
using kernel::Program;
using kernel::RecvMsg;
using kernel::SendMsg;
using kernel::Task;

/// Fan-in width of the incast / checkpoint patterns (sink is node 0).
constexpr int kFanIn = 8;

struct IncastShape {
  int rounds;
  std::uint64_t burst;     // bytes per sender per round
  std::uint64_t go_bytes;  // barrier token: sink -> each sender per round
};

IncastShape incast_shape(double scale) {
  IncastShape s;
  s.rounds = std::max(2, static_cast<int>(std::lround(40 * scale)));
  s.burst = 96 * 1024;
  s.go_bytes = 8;
  return s;
}

std::uint64_t checkpoint_bytes(double scale) {
  return std::max<std::uint64_t>(
      128 * 1024, static_cast<std::uint64_t>(std::llround(1.5e6 * scale)));
}

struct SharedLinkShape {
  std::uint64_t bulk;  // one-shot transfer sharing the NIC
  int pings;           // request/response rounds of the latency task
  std::uint64_t ping_bytes;
};

SharedLinkShape shared_link_shape(double scale) {
  SharedLinkShape s;
  s.bulk = std::max<std::uint64_t>(
      256 * 1024, static_cast<std::uint64_t>(std::llround(4e6 * scale)));
  s.pings = std::max(8, static_cast<int>(std::lround(60 * scale)));
  s.ping_bytes = 200;
  return s;
}

int node_count(CongestionPattern p) {
  return p == CongestionPattern::SharedLink ? 3 : kFanIn + 1;
}

sim::FaultConfig pattern_faults(CongestionPattern p, std::uint64_t seed) {
  sim::FaultConfig fc;
  fc.seed = seed * 99991ULL + 7;
  // Linux's RTO floor (200 ms) would let a single drop eat a whole
  // bench-scale round; 50 ms keeps several recovery cycles inside the run
  // while the Fixed model's timer stall still dominates (same shortening
  // the fault scenario applies).
  fc.rto = 50 * sim::kMillisecond;
  switch (p) {
    case CongestionPattern::Incast:
      fc.drop_prob = 0.015;  // pure loss: recovery-path attribution stays
      break;                 // one model == one instrumentation point
    case CongestionPattern::Checkpoint:
      // Loss-free: the stall must be NIC serialization, nothing else.
      fc.drop_prob = 0.0;
      break;
    case CongestionPattern::SharedLink:
      fc.reorder_prob = 0.05;  // pure reordering: splits Reno (spurious
      break;                   // fast retx) from RACK (absorbed)
  }
  return fc;
}

// -- workload programs -------------------------------------------------------

// Synchronized reads: every round the sink collects one burst from every
// sender, then releases the next round with a tiny "go" token.  The barrier
// is what makes incast incast — a tail drop in round r has no later traffic
// to hide behind, so the recovery latency (RTO vs one-RTT fast retransmit)
// lands squarely on the round time.
Program burst_sender(int fd, const IncastShape s) {
  for (int r = 0; r < s.rounds; ++r) {
    co_await SendMsg{fd, s.burst};
    co_await RecvMsg{fd, s.go_bytes};
  }
}

Program incast_sink(std::vector<int> fds, const IncastShape s) {
  for (int r = 0; r < s.rounds; ++r) {
    for (const int fd : fds) co_await RecvMsg{fd, s.burst};
    for (const int fd : fds) co_await SendMsg{fd, s.go_bytes};
  }
}

Program one_shot_sender(int fd, std::uint64_t bytes) {
  co_await SendMsg{fd, bytes};
}

Program checkpoint_sink(std::vector<int> fds, std::uint64_t bytes) {
  for (const int fd : fds) co_await RecvMsg{fd, bytes};
}

Program bulk_receiver(int fd, std::uint64_t bytes) {
  co_await RecvMsg{fd, bytes};
}

Program ping_client(int fd, const SharedLinkShape s) {
  for (int i = 0; i < s.pings; ++i) {
    co_await SendMsg{fd, s.ping_bytes};
    co_await RecvMsg{fd, s.ping_bytes};
  }
}

Program echo_server(int fd, const SharedLinkShape s) {
  for (int i = 0; i < s.pings; ++i) {
    co_await RecvMsg{fd, s.ping_bytes};
    co_await SendMsg{fd, s.ping_bytes};
  }
}

double incl_sec_of(const std::vector<analysis::EventRow>& rows,
                   std::string_view name) {
  for (const auto& r : rows) {
    if (r.name == name) return r.incl_sec;
  }
  return 0.0;
}

}  // namespace

std::string pattern_name(CongestionPattern p) {
  switch (p) {
    case CongestionPattern::Incast:
      return "incast";
    case CongestionPattern::Checkpoint:
      return "checkpoint";
    case CongestionPattern::SharedLink:
      return "shared-link";
  }
  return "?";
}

CongestionResult run_congestion(const CongestionConfig& cfg) {
  const int nodes = node_count(cfg.pattern);

  knet::NetConfig net;
  net.seed = cfg.seed * 777767ULL + 29;
  net.stack = cfg.stack;

  Cluster cluster(kernel::ShardPlan{sim_shards(cfg.sim_threads, nodes)});
  cluster.reserve_events(8192, 512);

  const sim::FaultConfig fc = pattern_faults(cfg.pattern, cfg.seed);
  std::unique_ptr<sim::FaultPlan> faults;
  if (fc.any()) {
    faults = std::make_unique<sim::FaultPlan>(
        fc, static_cast<std::uint32_t>(nodes));
  }

  for (int n = 0; n < nodes; ++n) {
    MachineConfig mc;
    mc.name = "cg" + std::to_string(n);
    mc.cpus = 2;
    mc.seed = cfg.seed * 1000003ULL + n;
    cluster.add_machine(mc);
  }
  knet::Fabric fabric(cluster, net, faults.get());

  CongestionResult out;
  std::vector<Task*> tasks;
  Task* ping_task = nullptr;

  switch (cfg.pattern) {
    case CongestionPattern::Incast: {
      const IncastShape s = incast_shape(cfg.scale);
      std::vector<int> sink_fds;
      for (int n = 1; n <= kFanIn; ++n) {
        const auto conn = fabric.connect(static_cast<kernel::NodeId>(n), 0);
        sink_fds.push_back(conn.fd_b);
        Task& tx = cluster.machine(n).spawn("burst" + std::to_string(n));
        tx.program = burst_sender(conn.fd_a, s);
        cluster.machine(n).launch(tx);
        tasks.push_back(&tx);
      }
      Task& rx = cluster.machine(0).spawn("sink");
      rx.program = incast_sink(std::move(sink_fds), s);
      cluster.machine(0).launch(rx);
      tasks.push_back(&rx);
      out.bytes_expected = static_cast<std::uint64_t>(kFanIn) * s.rounds *
                           (s.burst + s.go_bytes);
      break;
    }
    case CongestionPattern::Checkpoint: {
      const std::uint64_t bytes = checkpoint_bytes(cfg.scale);
      std::vector<int> sink_fds;
      for (int n = 1; n <= kFanIn; ++n) {
        const auto conn = fabric.connect(static_cast<kernel::NodeId>(n), 0);
        sink_fds.push_back(conn.fd_b);
        Task& tx = cluster.machine(n).spawn("ckpt" + std::to_string(n));
        tx.program = one_shot_sender(conn.fd_a, bytes);
        cluster.machine(n).launch(tx);
        tasks.push_back(&tx);
      }
      Task& rx = cluster.machine(0).spawn("io");
      rx.program = checkpoint_sink(std::move(sink_fds), bytes);
      cluster.machine(0).launch(rx);
      tasks.push_back(&rx);
      out.bytes_expected = static_cast<std::uint64_t>(kFanIn) * bytes;
      break;
    }
    case CongestionPattern::SharedLink: {
      const SharedLinkShape s = shared_link_shape(cfg.scale);
      const auto bulk = fabric.connect(0, 1);
      const auto ping = fabric.connect(0, 2);
      Task& btx = cluster.machine(0).spawn("bulk", kernel::cpu_bit(0));
      btx.program = one_shot_sender(bulk.fd_a, s.bulk);
      cluster.machine(0).launch(btx);
      tasks.push_back(&btx);
      Task& pc = cluster.machine(0).spawn("ping", kernel::cpu_bit(1));
      pc.program = ping_client(ping.fd_a, s);
      cluster.machine(0).launch(pc);
      tasks.push_back(&pc);
      ping_task = &pc;
      Task& brx = cluster.machine(1).spawn("bulk_rx");
      brx.program = bulk_receiver(bulk.fd_b, s.bulk);
      cluster.machine(1).launch(brx);
      tasks.push_back(&brx);
      Task& echo = cluster.machine(2).spawn("echo");
      echo.program = echo_server(ping.fd_b, s);
      cluster.machine(2).launch(echo);
      tasks.push_back(&echo);
      out.bytes_expected =
          s.bulk + 2ULL * static_cast<std::uint64_t>(s.pings) * s.ping_bytes;
      break;
    }
  }

  cluster.run();

  sim::TimeNs done = 0;
  for (const Task* t : tasks) done = std::max(done, t->end_time);
  out.exec_sec = static_cast<double>(done) / sim::kSecond;
  out.engine_events = cluster.executed_total();
  if (ping_task != nullptr) {
    out.ping_done_sec =
        static_cast<double>(ping_task->end_time) / sim::kSecond;
  }

  // Attribution through the real extraction path: per-node snapshots
  // (Scope::All includes the swapper contexts softirq work lands in),
  // folded with the kernel-wide aggregate view.
  const bool sink_sends = cfg.pattern == CongestionPattern::SharedLink;
  for (int n = 0; n < nodes; ++n) {
    Machine& m = cluster.machine(n);
    user::KtauHandle handle(m.proc());
    const meas::ProfileSnapshot snap = handle.get_profile(meas::Scope::All);
    const auto rows = analysis::aggregate_events(snap);
    out.retx_timer_sec += incl_sec_of(rows, sim::kTcpRetxEvent);
    out.fast_retx_sec += incl_sec_of(rows, "tcp_fast_retransmit");
    out.pacing_sec += incl_sec_of(rows, "tcp_pacing_timer");
    out.reo_sec += incl_sec_of(rows, "tcp_rack_reo_timer");
    const double softirq = incl_sec_of(rows, "net_rx_action");
    if (n == 0) {
      out.sink_softirq_sec = softirq;
      out.sink_irq_sec = incl_sec_of(rows, "eth0_irq");
    } else {
      out.max_sender_softirq_sec =
          std::max(out.max_sender_softirq_sec, softirq);
    }
    // In the fan-in patterns nodes 1..N send and node 0 receives; on the
    // shared link it is node 0's NIC that both workloads contend for.
    const bool tx_side = sink_sends ? n == 0 : n != 0;
    if (tx_side) {
      out.sender_nic_tx_sec +=
          static_cast<double>(fabric.stack(n).nic_tx_ns()) / sim::kSecond;
    }
    for (std::size_t fd = 0; fd < fabric.stack(n).socket_count(); ++fd) {
      out.bytes_received +=
          fabric.stack(n).socket(static_cast<int>(fd)).bytes_received;
    }
  }
  out.ideal_wire_sec =
      static_cast<double>(out.bytes_expected) / net.bandwidth_bps;

  out.net = analysis::net_counter_totals(analysis::net_node_counters(fabric));
  if (faults != nullptr) out.fault_totals = faults->totals();
  return out;
}

}  // namespace ktau::expt
