#include "knet/stack.hpp"

#include <algorithm>
#include <cassert>

#include "kernel/cluster.hpp"
#include "knet/stack_model.hpp"

namespace ktau::knet {

using kernel::Cpu;
using kernel::SyscallStatus;
using kernel::Task;

NodeStack::NodeStack(Fabric& fabric, kernel::Machine& machine,
                     const NetConfig& cfg, sim::FaultPlan* faults)
    : fabric_(fabric),
      machine_(machine),
      cfg_(cfg),
      faults_(faults),
      jitter_rng_(cfg.seed ^
                  (0x9E3779B97F4A7C15ULL * (std::uint64_t{machine.id()} + 1))),
      backlog_(machine.cpu_count()) {
  auto& ktau = machine_.ktau();
  ev_sys_writev_ = ktau.map_event("sys_writev", meas::Group::Syscall);
  ev_sys_read_ = ktau.map_event("sys_read", meas::Group::Syscall);
  ev_sock_sendmsg_ = ktau.map_event("sock_sendmsg", meas::Group::Net);
  ev_sock_recvmsg_ = ktau.map_event("sock_recvmsg", meas::Group::Net);
  ev_tcp_sendmsg_ = ktau.map_event("tcp_sendmsg", meas::Group::Net);
  ev_tcp_v4_rcv_ = ktau.map_event("tcp_v4_rcv", meas::Group::Net);
  ev_net_rx_action_ = ktau.map_event("net_rx_action", meas::Group::BottomHalf);
  ev_eth_irq_ = ktau.map_event("eth0_irq", meas::Group::Irq);
  ev_net_rx_bytes_ = ktau.map_event("net_rx_bytes", meas::Group::Net);
  ev_net_tx_bytes_ = ktau.map_event("net_tx_bytes", meas::Group::Net);

  machine_.install_net(this);
  machine_.register_softirq(kernel::kSoftirqNetRx,
                            [this](Cpu& cpu) { net_rx_softirq(cpu); });
  irq_line_ =
      machine_.register_irq(ev_eth_irq_, [this](Cpu& cpu) { nic_irq(cpu); });

  if (faults_ != nullptr && faults_->config().net_active()) {
    // Registered lazily — only when wire faults are actually on — so an
    // inert plan leaves the event registry (and hence every snapshot byte)
    // identical to a fault-free build.
    ev_tcp_retx_ = ktau.map_event(sim::kTcpRetxEvent, meas::Group::Net);
    retx_line_ = machine_.register_irq(
        ev_tcp_retx_, [this](Cpu& cpu) { retx_timer_irq(cpu); });
    retx_enabled_ = true;
  }

  // The model registers its own instrumentation points in its constructor,
  // after every shared event above — so the Fixed model (which registers
  // nothing) leaves the registry identical to the pre-seam stack.
  model_ = make_stack_model(*this, cfg_.stack);
  if (model_->wants_acks()) {
    ev_tcp_ack_rcv_ = ktau.map_event("tcp_ack_rcv", meas::Group::Net);
  }
}

NodeStack::~NodeStack() = default;

int NodeStack::alloc_socket() {
  sockets_.push_back(std::make_unique<Socket>());
  return static_cast<int>(sockets_.size()) - 1;
}

std::uint64_t NodeStack::copy_cycles(std::uint64_t bytes) const {
  return (bytes * cfg_.copy_per_kb + 1023) / 1024;
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

SyscallStatus NodeStack::sys_send(Cpu& cpu, Task& /*t*/,
                                  const kernel::SendMsg& m) {
  Socket& sock = socket(m.socket);
  const auto& costs = machine_.config().costs;

  machine_.kprobe_entry(cpu, ev_sys_writev_);
  cpu.clock.consume_cycles(costs.syscall_entry);
  machine_.ktau().hidden_pairs(cpu.clock, meas::Group::Syscall,
                               costs.syscall_inner_probes);
  machine_.kprobe_entry(cpu, ev_sock_sendmsg_);
  cpu.clock.consume_cycles(cfg_.sock_glue);

  const bool loopback = sock.peer_node == machine_.id();

  std::uint64_t remaining = m.bytes;
  while (remaining > 0) {
    const auto seg = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(remaining, cfg_.segment_bytes));
    remaining -= seg;

    machine_.kprobe_entry(cpu, ev_tcp_sendmsg_);
    cpu.clock.consume_cycles(cfg_.tcp_send_base + copy_cycles(seg));
    machine_.ktau().hidden_pairs(cpu.clock, meas::Group::Net,
                                 cfg_.tcp_inner_probes);
    machine_.kprobe_exit(cpu, ev_tcp_sendmsg_);
    machine_.katomic(cpu, ev_net_tx_bytes_, static_cast<double>(seg));

    const Packet pkt{sock.peer_fd, seg};
    if (loopback) {
      // Local delivery: straight into this CPU's softirq backlog; the
      // NET_RX softirq will run when this syscall's kernel path ends.
      // No wire, so the stack model does not apply.
      backlog_[cpu.id].push_back(pkt);
      machine_.raise_softirq(cpu, kernel::kSoftirqNetRx);
    } else {
      // The model decides: immediate egress (Fixed, Reno-within-window)
      // or queueing behind the window / pacing timer.
      model_->segment_out(cpu, m.socket, pkt);
    }
    sock.bytes_sent += seg;
  }

  cpu.clock.consume_cycles(cfg_.sock_glue);
  machine_.kprobe_exit(cpu, ev_sock_sendmsg_);
  cpu.clock.consume_cycles(costs.syscall_exit);
  machine_.kprobe_exit(cpu, ev_sys_writev_);
  return SyscallStatus::Completed;
}

sim::TimeNs NodeStack::egress_arrival(sim::TimeNs ready, std::uint32_t bytes) {
  const sim::TimeNs tx_time = static_cast<sim::TimeNs>(
      static_cast<double>(bytes) / cfg_.bandwidth_bps * sim::kSecond);
  nic_free_at_ = std::max(nic_free_at_, ready) + tx_time;
  nic_tx_ns_ += tx_time;
  const sim::TimeNs jitter = static_cast<sim::TimeNs>(
      jitter_rng_.exponential(static_cast<double>(cfg_.latency_jitter_mean)));
  return nic_free_at_ + cfg_.latency + jitter;
}

void NodeStack::transmit(sim::TimeNs send_time, int src_fd, const Packet& pkt,
                         sim::TimeNs arrival, std::uint32_t tries) {
  if (retx_enabled_ && !pkt.is_ack && !pkt.dup) {
    // ACKs are fate-exempt (cumulative-ACK robustness; see Packet::is_ack)
    // and so are spurious-retransmit duplicates — they model recovery
    // *behaviour*, not a second loss surface.
    const sim::FaultConfig& fc = faults_->config();
    switch (faults_->segment_fate(machine_.id())) {
      case sim::FaultPlan::SegmentFate::Drop:
        if (tries < fc.max_retx) {
          // Lost on the wire.  The model owns loss detection: when the
          // sender notices and how the retransmission is scheduled is what
          // distinguishes the stack models (DESIGN.md §13).
          model_->wire_lost(send_time, src_fd, pkt, tries);
          return;
        }
        // Retry budget exhausted: deliver unconditionally so extreme drop
        // probabilities degrade the run instead of wedging it.
        break;
      case sim::FaultPlan::SegmentFate::Reorder:
        arrival += fc.reorder_extra;
        model_->wire_reordered(send_time, src_fd, pkt);
        break;
      case sim::FaultPlan::SegmentFate::Deliver:
        break;
    }
  }
  // Cross-node delivery must go through the cluster so the run can buffer
  // it for the epoch barrier; arrival >= now + latency >= now +
  // lookahead, which is exactly the conservative-window guarantee.
  const kernel::NodeId peer_node = socket(src_fd).peer_node;
  NodeStack& peer_stack = fabric_.stack(peer_node);
  fabric_.cluster().cross_schedule(
      machine_.id(), peer_node, arrival,
      [&peer_stack, pkt] { peer_stack.deliver(pkt); });
}

void NodeStack::schedule_timer_retx(sim::TimeNs when, int src_fd,
                                    const Packet& pkt, std::uint32_t tries) {
  machine_.engine().schedule_at(when, [this, src_fd, pkt, tries] {
    retx_queue_.push_back(PendingRetx{pkt, src_fd, tries + 1});
    machine_.raise_device_irq(retx_line_);
  });
}

void NodeStack::count_retransmit() {
  ++retransmits_;
  ++faults_->node_totals(machine_.id()).retransmits;
}

void NodeStack::retx_timer_irq(Cpu& cpu) {
  // Runs in interrupt context; deliver_irq has already charged the do_IRQ
  // prologue and opened the tcp_retransmit_timer probe pair, so everything
  // consumed here lands in the retransmit path's exclusive time (path
  // cost, visible in the kernel-wide view of a lossy run).
  while (!retx_queue_.empty()) {
    const PendingRetx rt = retx_queue_.front();
    retx_queue_.pop_front();
    cpu.clock.consume_cycles(cfg_.tcp_send_base);
    count_retransmit();
    const sim::TimeNs arrival = egress_arrival(cpu.clock.cursor, rt.pkt.bytes);
    transmit(cpu.clock.cursor, rt.src_fd, rt.pkt, arrival, rt.tries);
  }
}

// ---------------------------------------------------------------------------
// Receive path: syscall side
// ---------------------------------------------------------------------------

bool NodeStack::claim_waiter(Socket& sock, Task& t, std::uint64_t wanted) {
  if (sock.waiter != nullptr && sock.waiter != &t) {
    // A second reader racing onto a socket whose wait slot is taken would
    // silently overwrite waiter/wanted and strand the first task forever.
    // Fail loudly instead: abort in debug builds, count and surface EBUSY
    // in release builds.
    assert(false && "knet: socket already has a blocked/polling reader");
    ++sock.read_errors;
    return false;
  }
  sock.waiter = &t;
  sock.wanted = wanted;
  return true;
}

SyscallStatus NodeStack::sys_recv(Cpu& cpu, Task& t, const kernel::RecvMsg& m,
                                  bool allow_block) {
  Socket& sock = socket(m.socket);
  sock.owner = &t;
  const auto& costs = machine_.config().costs;

  machine_.kprobe_entry(cpu, ev_sys_read_);
  cpu.clock.consume_cycles(costs.syscall_entry);
  machine_.ktau().hidden_pairs(cpu.clock, meas::Group::Syscall,
                               costs.syscall_inner_probes);

  if (sock.rx_available >= m.bytes) {
    return finish_recv(cpu, t, m.socket, m.bytes);
  }

  if (!claim_waiter(sock, t, m.bytes)) {
    cpu.clock.consume_cycles(costs.syscall_exit);
    machine_.kprobe_exit(cpu, ev_sys_read_);
    return SyscallStatus::Error;
  }

  if (!allow_block) {
    // Non-blocking attempt (the user-space poll loop): EAGAIN.  The waiter
    // registration stays so the receive path can poke the spinner the
    // moment enough data arrives.
    cpu.clock.consume_cycles(costs.syscall_exit);
    machine_.kprobe_exit(cpu, ev_sys_read_);
    return SyscallStatus::WouldBlock;
  }

  // Not enough data: block as the socket's registered waiter.  The
  // sys_read activation frame stays open across the block, so the nested
  // schedule_vol wait is part of sys_read's inclusive time — the structure
  // Figure 4 (MPI_Recv's kernel call groups) displays.
  const int fd = m.socket;
  const std::uint64_t bytes = m.bytes;
  t.resume = [this, fd, bytes](Cpu& c, Task& task) {
    return finish_recv(c, task, fd, bytes);
  };
  machine_.block_current(cpu, t);
  return SyscallStatus::Blocked;
}

SyscallStatus NodeStack::finish_recv(Cpu& cpu, Task& t, int fd,
                                     std::uint64_t bytes) {
  Socket& sock = socket(fd);
  if (sock.rx_available < bytes) {
    // Spurious wakeup (defensive; wakes are normally exact): wait again.
    if (!claim_waiter(sock, t, bytes)) {
      cpu.clock.consume_cycles(machine_.config().costs.syscall_exit);
      machine_.kprobe_exit(cpu, ev_sys_read_);
      return SyscallStatus::Error;
    }
    machine_.block_current(cpu, t);
    return SyscallStatus::Blocked;
  }
  const auto& costs = machine_.config().costs;
  sock.rx_available -= bytes;
  if (sock.waiter == &t) sock.waiter = nullptr;  // poll satisfied

  machine_.kprobe_entry(cpu, ev_sock_recvmsg_);
  cpu.clock.consume_cycles(cfg_.sock_glue + copy_cycles(bytes));
  machine_.kprobe_exit(cpu, ev_sock_recvmsg_);

  cpu.clock.consume_cycles(costs.syscall_exit);
  machine_.kprobe_exit(cpu, ev_sys_read_);
  return SyscallStatus::Completed;
}

// ---------------------------------------------------------------------------
// Receive path: multiplexed (sys_poll + sys_read, the reactor primitive)
// ---------------------------------------------------------------------------

void NodeStack::clear_poll_waiters(const std::vector<int>& fds, Task& t) {
  for (const int fd : fds) {
    Socket& s = socket(fd);
    if (s.waiter == &t) s.waiter = nullptr;
  }
}

SyscallStatus NodeStack::sys_recv_any(Cpu& cpu, Task& t,
                                      const kernel::RecvAny& m) {
  if (ev_sys_poll_ == meas::kNoEventId) {
    // First poll on this node: register the instrumentation point lazily so
    // workloads that never multiplex keep their registry bytes unchanged.
    ev_sys_poll_ = machine_.ktau().map_event("sys_poll", meas::Group::Syscall);
  }
  const auto& costs = machine_.config().costs;
  machine_.kprobe_entry(cpu, ev_sys_poll_);
  cpu.clock.consume_cycles(costs.syscall_entry +
                           cfg_.poll_per_fd * m.fds->size());
  machine_.ktau().hidden_pairs(cpu.clock, meas::Group::Syscall,
                               costs.syscall_inner_probes);
  // The reactor is the sticky consumer of every connection it watches (the
  // receive path's cache-penalty check keys on this).
  for (const int fd : *m.fds) socket(fd).owner = &t;

  for (const int fd : *m.fds) {
    if (socket(fd).rx_available >= m.bytes) {
      return finish_recv_any(cpu, t, m.fds, m.bytes, m.out_fd);
    }
  }

  for (const int fd : *m.fds) {
    if (!claim_waiter(socket(fd), t, m.bytes)) {
      clear_poll_waiters(*m.fds, t);
      cpu.clock.consume_cycles(costs.syscall_exit);
      machine_.kprobe_exit(cpu, ev_sys_poll_);
      return SyscallStatus::Error;
    }
  }

  // Block as the registered waiter of every watched socket; whichever one
  // fills first wakes us, and the rescan clears the other registrations.
  // The sys_poll activation frame stays open across the block, so the
  // nested schedule_vol wait lands in sys_poll's inclusive time.
  const std::vector<int>* fds = m.fds;
  const std::uint64_t bytes = m.bytes;
  int* out_fd = m.out_fd;
  t.resume = [this, fds, bytes, out_fd](Cpu& c, Task& task) {
    return finish_recv_any(c, task, fds, bytes, out_fd);
  };
  machine_.block_current(cpu, t);
  return SyscallStatus::Blocked;
}

SyscallStatus NodeStack::finish_recv_any(Cpu& cpu, Task& t,
                                         const std::vector<int>* fds,
                                         std::uint64_t bytes, int* out_fd) {
  const auto& costs = machine_.config().costs;
  // The wakeup re-runs the readiness scan (the poll return path).
  cpu.clock.consume_cycles(cfg_.poll_per_fd * fds->size());
  int ready = -1;
  for (const int fd : *fds) {
    if (socket(fd).rx_available >= bytes) {
      ready = fd;
      break;
    }
  }
  if (ready < 0) {
    // Spurious wakeup (defensive; wakes are normally exact): wait again.
    for (const int fd : *fds) {
      if (!claim_waiter(socket(fd), t, bytes)) {
        clear_poll_waiters(*fds, t);
        cpu.clock.consume_cycles(costs.syscall_exit);
        machine_.kprobe_exit(cpu, ev_sys_poll_);
        return SyscallStatus::Error;
      }
    }
    machine_.block_current(cpu, t);
    return SyscallStatus::Blocked;
  }
  clear_poll_waiters(*fds, t);
  Socket& sock = socket(ready);
  sock.rx_available -= bytes;

  machine_.kprobe_entry(cpu, ev_sock_recvmsg_);
  cpu.clock.consume_cycles(cfg_.sock_glue + copy_cycles(bytes));
  machine_.kprobe_exit(cpu, ev_sock_recvmsg_);

  cpu.clock.consume_cycles(costs.syscall_exit);
  machine_.kprobe_exit(cpu, ev_sys_poll_);
  *out_fd = ready;
  return SyscallStatus::Completed;
}

// ---------------------------------------------------------------------------
// Receive path: interrupt side
// ---------------------------------------------------------------------------

void NodeStack::deliver(const Packet& p) {
  rx_ring_.push_back(p);
  machine_.raise_device_irq(irq_line_);
}

void NodeStack::nic_irq(Cpu& cpu) {
  // Drain the rx ring into this CPU's softirq backlog (netif_rx).  Deferred
  // interrupts drain everything that accumulated, so a burst of segments is
  // handled by one hard IRQ (interrupt coalescing falls out naturally).
  while (!rx_ring_.empty()) {
    backlog_[cpu.id].push_back(rx_ring_.front());
    rx_ring_.pop_front();
    cpu.clock.consume_cycles(cfg_.nic_per_packet);
  }
  machine_.raise_softirq(cpu, kernel::kSoftirqNetRx);
}

void NodeStack::emit_ack(Cpu& cpu, const Socket& sock, std::uint32_t acked) {
  // Building + queueing the cumulative ACK: path cost inside net_rx_action.
  cpu.clock.consume_cycles(cfg_.ack_tx_cycles);
  Packet ack;
  ack.dst_fd = sock.peer_fd;
  ack.bytes = acked;
  ack.is_ack = true;
  // The ACK serializes on this node's NIC like any frame, then traverses
  // the link; arrival >= now + latency >= now + lookahead, so the
  // lookahead contract holds for the reverse path too.
  const sim::TimeNs arrival = egress_arrival(cpu.clock.cursor, cfg_.ack_wire_bytes);
  NodeStack& peer_stack = fabric_.stack(sock.peer_node);
  fabric_.cluster().cross_schedule(
      machine_.id(), sock.peer_node, arrival,
      [&peer_stack, ack] { peer_stack.deliver(ack); });
}

void NodeStack::net_rx_softirq(Cpu& cpu) {
  auto& backlog = backlog_[cpu.id];
  if (backlog.empty()) return;
  machine_.kprobe_entry(cpu, ev_net_rx_action_);
  while (!backlog.empty()) {
    const Packet p = backlog.front();
    backlog.pop_front();
    Socket& sock = socket(p.dst_fd);

    if (p.is_ack) {
      // Sender side of the windowed models' ACK clock: account the ACK,
      // open the window, release queued segments (all in softirq context).
      machine_.kprobe_entry(cpu, ev_tcp_ack_rcv_);
      cpu.clock.consume_cycles(cfg_.ack_rcv_cycles);
      machine_.kprobe_exit(cpu, ev_tcp_ack_rcv_);
      ++acks_received_;
      model_->ack_in(cpu, p.dst_fd, p.bytes);
      continue;
    }

    machine_.kprobe_entry(cpu, ev_tcp_v4_rcv_);
    std::uint64_t cost = cfg_.tcp_rcv_base + copy_cycles(p.bytes);
    // Cache penalty: the consumer's working set lives on another CPU.
    if (sock.owner != nullptr && sock.owner->last_cpu != cpu.id) {
      cost += cfg_.tcp_rcv_cache_penalty;
      ++rx_penalized_;
    }
    cpu.clock.consume_cycles(cost);
    machine_.ktau().hidden_pairs(cpu.clock, meas::Group::Net,
                                 cfg_.tcp_inner_probes);
    machine_.kprobe_exit(cpu, ev_tcp_v4_rcv_);
    machine_.katomic(cpu, ev_net_rx_bytes_, static_cast<double>(p.bytes));

    ++sock.segments_received;
    ++rx_segments_;
    if (p.dup) {
      // Duplicate payload from a spurious retransmission: full kernel cost
      // above, but the bytes are discarded — no credit, no wake, no ACK.
      continue;
    }
    sock.rx_available += p.bytes;
    sock.bytes_received += p.bytes;

    if (sock.waiter != nullptr && sock.rx_available >= sock.wanted) {
      Task* w = sock.waiter;
      sock.waiter = nullptr;
      if (w->state == kernel::TaskState::Blocked) {
        machine_.wake(*w, cpu.clock.cursor);
      } else {
        machine_.poke_spinner(*w, cpu.clock.cursor);
      }
    }

    if (model_->wants_acks() && sock.peer_node != machine_.id()) {
      emit_ack(cpu, sock, p.bytes);
    }
  }
  machine_.kprobe_exit(cpu, ev_net_rx_action_);
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

Fabric::Fabric(kernel::Cluster& cluster, NetConfig cfg, sim::FaultPlan* faults)
    : cluster_(cluster), cfg_(cfg), faults_(faults) {
  // The conservative scheduler's safety argument is "no cross-node effect
  // lands sooner than one link latency", so the link latency bounds the
  // cluster's lookahead (a zero latency is rejected there).
  cluster.lower_lookahead(cfg_.latency);
  stacks_.reserve(cluster.size());
  for (kernel::NodeId n = 0; n < cluster.size(); ++n) {
    stacks_.push_back(
        std::make_unique<NodeStack>(*this, cluster.machine(n), cfg_, faults_));
  }
}

Fabric::Connection Fabric::connect(kernel::NodeId a, kernel::NodeId b) {
  NodeStack& sa = stack(a);
  NodeStack& sb = stack(b);
  const int fa = sa.alloc_socket();
  const int fb = sb.alloc_socket();
  sa.socket(fa).peer_node = b;
  sa.socket(fa).peer_fd = fb;
  sb.socket(fb).peer_node = a;
  sb.socket(fb).peer_fd = fa;
  return Connection{fa, fb};
}

}  // namespace ktau::knet
