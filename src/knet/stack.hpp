// Simulated network: per-node TCP stack + cluster fabric.
//
// Data path (remote):
//   sender:  sys_writev -> sock_sendmsg -> tcp_sendmsg per segment
//            -> StackModel (window / pacing decision, DESIGN.md §13)
//            -> NIC egress FIFO (serialization, shared per node)
//            -> link latency (+ jitter) -> delivery event at receiver
//   receiver: NIC rx ring -> hard IRQ (routed by the node's IRQ policy)
//            -> NET_RX softirq -> net_rx_action -> tcp_v4_rcv per segment
//            -> socket receive queue -> wake blocked reader
//            [-> per-segment ACK back to the sender, if the model asks].
//
// Data path (loopback, two ranks on one node): tcp_sendmsg feeds the local
// CPU's softirq backlog directly; the NET_RX softirq then runs when the
// send syscall's kernel path ends — which is why kernel receive activity
// appears *inside* MPI_Send in merged traces (paper Figure 2-E).  Loopback
// bypasses the stack model: there is no wire, so no window, pacing, or
// loss applies.
//
// Every kernel routine on these paths is a KTAU instrumentation point, and
// tcp_v4_rcv pays a cache penalty when it runs on a different CPU than the
// consuming task last ran on (the SMP effect behind Figure 10).
//
// `NodeStack` is the machine-facing shell; the per-segment decisions (when
// a segment goes on the wire, in-flight limits, loss detection and
// retransmission scheduling) belong to the pluggable `StackModel`
// (stack_model.hpp), selected by `NetConfig::stack`.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "kernel/machine.hpp"
#include "kernel/types.hpp"
#include "knet/config.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"

namespace ktau::knet {

/// A TCP segment in flight or queued.
struct Packet {
  int dst_fd = -1;
  std::uint32_t bytes = 0;
  /// Pure ACK (windowed models only): `bytes` is the byte count being
  /// cumulatively acknowledged, not payload.  ACKs bypass the wire-fault
  /// fate — with cumulative ACKs a lost ACK is absorbed by the next one,
  /// and the per-segment ACKs here substitute for that, so fate-exempting
  /// them keeps the window accounting exact.
  bool is_ack = false;
  /// Duplicate payload from a spurious retransmission: the receiver charges
  /// the full tcp_v4_rcv kernel cost but discards the bytes (no credit, no
  /// ACK) — kernel work without progress, which is the point.
  bool dup = false;
};

/// One endpoint of a connected stream socket.
struct Socket {
  kernel::NodeId peer_node = 0;
  int peer_fd = -1;
  /// Bytes received and not yet consumed by reads.
  std::uint64_t rx_available = 0;
  /// Blocked reader (at most one) and the bytes it needs.
  kernel::Task* waiter = nullptr;
  std::uint64_t wanted = 0;
  /// The task that consumes this socket (sticky; set on first read).  Used
  /// by the receive path's cache-penalty check.
  kernel::Task* owner = nullptr;
  // -- statistics --
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t segments_received = 0;
  /// Reads rejected because another task already held the wait slot
  /// (EBUSY; asserts in debug builds).
  std::uint64_t read_errors = 0;
};

class Fabric;
class StackModel;

/// Per-node network stack; implements the kernel's NetStack interface and
/// installs itself on the machine.
class NodeStack final : public kernel::NetStack {
 public:
  /// `faults` may be null (no fault injection); when set but inert for the
  /// network, no retransmit event/IRQ line is registered, keeping the node
  /// byte-identical to a fault-free build.
  NodeStack(Fabric& fabric, kernel::Machine& machine, const NetConfig& cfg,
            sim::FaultPlan* faults);
  ~NodeStack() override;

  NodeStack(const NodeStack&) = delete;
  NodeStack& operator=(const NodeStack&) = delete;

  kernel::Machine& machine() { return machine_; }

  // -- NetStack (syscall bodies, run on the caller's CPU) --------------------

  kernel::SyscallStatus sys_send(kernel::Cpu& cpu, kernel::Task& t,
                                 const kernel::SendMsg& m) override;
  kernel::SyscallStatus sys_recv(kernel::Cpu& cpu, kernel::Task& t,
                                 const kernel::RecvMsg& m,
                                 bool allow_block) override;
  kernel::SyscallStatus sys_recv_any(kernel::Cpu& cpu, kernel::Task& t,
                                     const kernel::RecvAny& m) override;

  // -- receive side ------------------------------------------------------------

  /// Called by the fabric when a segment arrives at this node's NIC.
  void deliver(const Packet& p);

  const Socket& socket(int fd) const { return *sockets_.at(fd); }
  Socket& socket(int fd) { return *sockets_.at(fd); }
  std::size_t socket_count() const { return sockets_.size(); }

  /// The stack model driving this node's per-segment decisions.
  StackModel& model() { return *model_; }
  const StackModel& model() const { return *model_; }

  /// Total segments processed by tcp_v4_rcv on this node.
  std::uint64_t rx_segments() const { return rx_segments_; }
  /// Of those, how many paid the cross-CPU cache penalty.
  std::uint64_t rx_penalized() const { return rx_penalized_; }
  /// Segments this node retransmitted after simulated wire loss.
  std::uint64_t retransmits() const { return retransmits_; }
  /// Retransmissions of segments that were never lost (Reno mistaking
  /// reordering for loss); also counted in retransmits().
  std::uint64_t spurious_retransmits() const { return spurious_retransmits_; }
  /// Pure ACKs processed by this node's tcp_ack_rcv (windowed models).
  std::uint64_t acks_received() const { return acks_received_; }
  /// Cumulative NIC egress serialization time (wire occupancy) of this
  /// node, in simulated ns.
  sim::TimeNs nic_tx_ns() const { return nic_tx_ns_; }

 private:
  friend class Fabric;
  friend class StackModel;

  /// A lost segment awaiting its retransmission-timer pass.
  struct PendingRetx {
    Packet pkt;
    int src_fd = -1;
    std::uint32_t tries = 0;
  };

  int alloc_socket();
  void nic_irq(kernel::Cpu& cpu);
  void net_rx_softirq(kernel::Cpu& cpu);
  /// Finishes (or re-blocks) a read that blocked waiting for data.
  kernel::SyscallStatus finish_recv(kernel::Cpu& cpu, kernel::Task& t, int fd,
                                    std::uint64_t bytes);
  /// Rescan half of the multiplexed receive: consumes from the first ready
  /// fd in `*fds` or re-registers `t` on every fd and blocks again.
  kernel::SyscallStatus finish_recv_any(kernel::Cpu& cpu, kernel::Task& t,
                                        const std::vector<int>* fds,
                                        std::uint64_t bytes, int* out_fd);
  /// Drops `t`'s waiter registrations across a poll set (a wake on one fd
  /// leaves the others registered).
  void clear_poll_waiters(const std::vector<int>& fds, kernel::Task& t);
  /// Registers `t` as the socket's single blocked/polling reader.  False —
  /// after counting the error and asserting in debug builds — if another
  /// task already holds the slot.
  bool claim_waiter(Socket& sock, kernel::Task& t, std::uint64_t wanted);
  /// NIC serialization + link traversal: updates nic_free_at_ and returns
  /// the segment's arrival time at the peer (includes the jitter draw).
  sim::TimeNs egress_arrival(sim::TimeNs ready, std::uint32_t bytes);
  /// Puts one segment on the wire, routing the fault plan's drop/reorder
  /// fate through the stack model's loss-detection hooks.
  void transmit(sim::TimeNs send_time, int src_fd, const Packet& pkt,
                sim::TimeNs arrival, std::uint32_t tries);
  /// Arms the shared retransmission timer: at `when` the segment joins
  /// retx_queue_ and the tcp_retransmit_timer IRQ is raised.
  void schedule_timer_retx(sim::TimeNs when, int src_fd, const Packet& pkt,
                           std::uint32_t tries);
  void retx_timer_irq(kernel::Cpu& cpu);
  /// Builds + sends the per-segment ACK for `sock` (windowed models).
  void emit_ack(kernel::Cpu& cpu, const Socket& sock, std::uint32_t acked);
  void count_retransmit();
  std::uint64_t copy_cycles(std::uint64_t bytes) const;

  Fabric& fabric_;
  kernel::Machine& machine_;
  const NetConfig& cfg_;
  sim::FaultPlan* faults_;

  /// Per-node link-jitter stream.  Jitter used to be drawn from one
  /// fabric-wide Rng; per-node streams keep the egress path free of shared
  /// mutable state so shards never contend (and a node's jitter schedule
  /// no longer depends on other nodes' send interleaving).
  sim::Rng jitter_rng_;

  std::vector<std::unique_ptr<Socket>> sockets_;

  /// Segments landed in the rx ring, not yet pulled off by the IRQ handler.
  std::deque<Packet> rx_ring_;
  /// Per-CPU softirq backlogs (netif_rx queues).
  std::vector<std::deque<Packet>> backlog_;

  /// NIC egress serialization: time the NIC becomes free again.
  sim::TimeNs nic_free_at_ = 0;

  // instrumentation points
  meas::EventId ev_sys_writev_;
  meas::EventId ev_sys_read_;
  meas::EventId ev_sock_sendmsg_;
  meas::EventId ev_sock_recvmsg_;
  meas::EventId ev_tcp_sendmsg_;
  meas::EventId ev_tcp_v4_rcv_;
  meas::EventId ev_net_rx_action_;
  meas::EventId ev_eth_irq_;
  meas::EventId ev_net_rx_bytes_;
  meas::EventId ev_net_tx_bytes_;
  /// Registered lazily on the first sys_recv_any call, so workloads that
  /// never poll keep the event registry (and snapshot bytes) unchanged.
  meas::EventId ev_sys_poll_ = meas::kNoEventId;
  kernel::Machine::IrqLine irq_line_ = 0;

  // retransmission-timer path (registered only when network faults are on)
  bool retx_enabled_ = false;
  meas::EventId ev_tcp_retx_ = 0;
  kernel::Machine::IrqLine retx_line_ = 0;
  std::deque<PendingRetx> retx_queue_;

  /// The pluggable per-segment strategy (DESIGN.md §13).  Built last in the
  /// constructor so model instrumentation points register after the shell's.
  std::unique_ptr<StackModel> model_;
  /// Registered only when the model wants ACKs (windowed models).
  meas::EventId ev_tcp_ack_rcv_ = 0;

  std::uint64_t rx_segments_ = 0;
  std::uint64_t rx_penalized_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t spurious_retransmits_ = 0;
  std::uint64_t acks_received_ = 0;
  sim::TimeNs nic_tx_ns_ = 0;
};

/// Cluster-wide wiring: owns the per-node stacks and the links.
class Fabric {
 public:
  /// Builds a stack for every machine currently in the cluster and lowers
  /// the cluster's lookahead to `cfg.latency` (std::invalid_argument when
  /// it is 0).  Build it before the first run.  `faults` (optional,
  /// caller-owned, must outlive the fabric) enables the wire fault hooks
  /// on every stack.
  Fabric(kernel::Cluster& cluster, NetConfig cfg = {},
         sim::FaultPlan* faults = nullptr);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Connects node `a` and node `b` with a full-duplex stream; returns the
  /// socket fds {fd on a, fd on b}.  a == b creates a loopback pair.
  struct Connection {
    int fd_a;
    int fd_b;
  };
  Connection connect(kernel::NodeId a, kernel::NodeId b);

  NodeStack& stack(kernel::NodeId n) { return *stacks_.at(n); }
  const NetConfig& config() const { return cfg_; }
  sim::FaultPlan* faults() { return faults_; }
  kernel::Cluster& cluster() { return cluster_; }

 private:
  kernel::Cluster& cluster_;
  NetConfig cfg_;
  sim::FaultPlan* faults_;
  std::vector<std::unique_ptr<NodeStack>> stacks_;
};

}  // namespace ktau::knet
