// Serving workload tests: the RecvAny (sys_poll) multiplexing primitive,
// per-request probe tagging into TaskProfile::requests(), the serve
// experiment's determinism across scheduler shard counts, and its refusal
// of loads whose reactor tag ranges would overlap.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "apps/serve.hpp"
#include "experiments/serve.hpp"
#include "kernel/cluster.hpp"
#include "knet/stack.hpp"

namespace ktau {
namespace {

using kernel::Cluster;
using kernel::Machine;
using kernel::MachineConfig;
using kernel::Program;
using kernel::RecvAny;
using kernel::SendMsg;
using kernel::Task;
using sim::kMillisecond;

MachineConfig node_config(std::uint32_t cpus = 2) {
  MachineConfig cfg;
  cfg.cpus = cpus;
  cfg.ktau.charge_overhead = false;
  cfg.wake_misplace_prob = 0.0;
  cfg.smp_compute_dilation = 0.0;
  return cfg;
}

struct TwoNodes {
  Cluster cluster;
  Machine* a = nullptr;
  Machine* b = nullptr;
  std::unique_ptr<knet::Fabric> fabric;

  TwoNodes() {
    a = &cluster.add_machine(node_config());
    b = &cluster.add_machine(node_config());
    knet::NetConfig net;
    net.latency_jitter_mean = 0;
    fabric = std::make_unique<knet::Fabric>(cluster, net);
  }
};

Program sender(int fd, std::uint64_t bytes) { co_await SendMsg{fd, bytes}; }

Program poll_once(std::vector<int> conns, std::uint64_t bytes, int* out_fd) {
  std::vector<int> fds = std::move(conns);
  co_await RecvAny{&fds, bytes, out_fd};
}

Program poll_twice(std::vector<int> conns, std::uint64_t bytes, int* first,
                   int* second) {
  std::vector<int> fds = std::move(conns);
  co_await RecvAny{&fds, bytes, first};
  co_await RecvAny{&fds, bytes, second};
}

TEST(RecvAny, DataOnSecondSocketWakesThePoller) {
  TwoNodes env;
  const auto c0 = env.fabric->connect(0, 1);
  const auto c1 = env.fabric->connect(0, 1);
  int ready = -1;
  Task& rx = env.b->spawn("poller");
  rx.program = poll_once({c0.fd_b, c1.fd_b}, 100, &ready);
  env.b->launch(rx);
  // Only the second watched connection ever gets data, 20 ms in.
  Task& tx = env.a->spawn("tx", kernel::kAllCpus, 20 * kMillisecond);
  tx.program = sender(c1.fd_a, 100);
  env.a->launch(tx);
  env.cluster.run();

  EXPECT_TRUE(rx.exited);
  EXPECT_EQ(ready, c1.fd_b);
  EXPECT_GT(rx.end_time, 20 * kMillisecond);
  // The other socket's wait slot was released when the poll completed.
  EXPECT_EQ(env.fabric->stack(1).socket(c0.fd_b).waiter, nullptr);
}

TEST(RecvAny, BothReadyPicksFirstInWatchOrder) {
  TwoNodes env;
  const auto c0 = env.fabric->connect(0, 1);
  const auto c1 = env.fabric->connect(0, 1);
  for (const int fd : {c1.fd_a, c0.fd_a}) {
    Task& tx = env.a->spawn("tx");
    tx.program = sender(fd, 100);
    env.a->launch(tx);
  }
  // The poller starts 50 ms later, when both sockets already hold data:
  // readiness is scanned in watch order, so fd c0 wins despite c1's data
  // having been sent first.
  int ready = -1;
  Task& rx = env.b->spawn("poller", kernel::kAllCpus, 50 * kMillisecond);
  rx.program = poll_once({c0.fd_b, c1.fd_b}, 100, &ready);
  env.b->launch(rx);
  env.cluster.run();

  EXPECT_TRUE(rx.exited);
  EXPECT_EQ(ready, c0.fd_b);
}

TEST(RecvAny, QueuedBytesServeBackToBackPolls) {
  TwoNodes env;
  const auto c0 = env.fabric->connect(0, 1);
  const auto c1 = env.fabric->connect(0, 1);
  // Two 100-byte messages on one socket: the second poll must complete
  // immediately from the queued bytes, without another wake.
  Task& tx = env.a->spawn("tx");
  tx.program = sender(c0.fd_a, 200);
  env.a->launch(tx);
  int first = -1, second = -1;
  Task& rx = env.b->spawn("poller", kernel::kAllCpus, 50 * kMillisecond);
  rx.program = poll_twice({c0.fd_b, c1.fd_b}, 100, &first, &second);
  env.b->launch(rx);
  env.cluster.run();

  EXPECT_TRUE(rx.exited);
  EXPECT_EQ(first, c0.fd_b);
  EXPECT_EQ(second, c0.fd_b);
  EXPECT_EQ(env.fabric->stack(1).socket(c0.fd_b).rx_available, 0u);
}

TEST(ServeApp, ReactorTagsEveryRequestIntoTheProfile) {
  TwoNodes env;
  const auto conn = env.fabric->connect(0, 1);
  apps::ServeShape shape;
  apps::ServeLog slog;
  apps::ClientLog clog;
  constexpr std::uint32_t kCount = 5;
  Task& reactor = apps::spawn_reactor(*env.b, {conn.fd_b}, shape, /*seed=*/7,
                                      /*tag_base=*/0, slog, kernel::cpu_bit(0),
                                      "reactor");
  apps::spawn_closed_client(*env.a, conn.fd_a, shape, kCount, clog, "cli");
  env.cluster.run();

  ASSERT_EQ(slog.served.size(), kCount);
  ASSERT_EQ(clog.requests.size(), kCount);
  std::set<std::uint32_t> tags;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const apps::ServedRequest& r = slog.served[i];
    EXPECT_EQ(r.tag, i + 1);       // tag_base + pickup order
    EXPECT_EQ(r.seq, i);           // per-connection sequence
    EXPECT_EQ(r.fd, conn.fd_b);
    EXPECT_GT(r.done, r.picked_up);
    EXPECT_GT(r.service, 0);
    tags.insert(r.tag);
  }
  // Every tag accumulated at least one kernel path (the response send runs
  // under the tag), and no tagged work leaked outside 1..kCount.
  std::set<std::uint32_t> tagged;
  for (const auto& [key, m] : reactor.prof.requests()) {
    const auto tag = static_cast<std::uint32_t>(key >> 32);
    EXPECT_NE(tag, 0u);
    EXPECT_GT(m.count, 0u);
    tagged.insert(tag);
  }
  EXPECT_EQ(tagged, tags);
  // The tag is cleared between requests: the profile's live tag is 0 now.
  EXPECT_EQ(reactor.prof.request_tag(), 0u);
}

TEST(ServeExperiment, RejectsLoadsThatOverflowAReactorsTags) {
  // Open loop on 2 CPUs offers each reactor 4 connections x 600 x scale
  // requests.  At scale 437 that is 1 048 800 > 2^20, so reactor 0's tags
  // would run into reactor 1's: the load is refused before anything is
  // built or simulated.
  expt::ServeConfig cfg;
  cfg.mode = expt::ServeMode::Open;
  cfg.server_cpus = 2;
  cfg.scale = 437;
  EXPECT_THROW(expt::run_serve(cfg), std::invalid_argument);
}

TEST(ServeExperiment, ByteIdenticalAcrossSimThreads) {
  expt::ServeConfig cfg;
  cfg.mode = expt::ServeMode::Closed;
  cfg.server_cpus = 2;
  cfg.scale = 0.02;  // floor: 20 requests x 24 connections
  cfg.sim_threads = 1;
  const expt::ServeResult one = expt::run_serve(cfg);
  cfg.sim_threads = 4;
  const expt::ServeResult four = expt::run_serve(cfg);

  EXPECT_EQ(one.requests_completed, one.requests_offered);
  EXPECT_EQ(one.requests_completed, four.requests_completed);
  EXPECT_EQ(one.engine_events, four.engine_events);
  EXPECT_EQ(one.tagged_requests, one.requests_completed);
  EXPECT_EQ(std::memcmp(&one.throughput_rps, &four.throughput_rps,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&one.latency.p999, &four.latency.p999,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&one.tagged_kernel_sec, &four.tagged_kernel_sec,
                        sizeof(double)),
            0);
}

}  // namespace
}  // namespace ktau
