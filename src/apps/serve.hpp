// Request/response serving workload (DESIGN.md §14).
//
// The ROADMAP's "millions of users" north star made concrete: a
// reactor-per-CPU server multiplexing many connections over the simulated
// sockets (the RecvAny poll primitive), driven by open-loop (Poisson
// arrivals drawn from sim::Rng) or closed-loop (send-wait-repeat) client
// generators on other nodes.
//
// Each request the reactor picks up gets a unique nonzero tag installed in
// the server task's TaskProfile (set_request_tag).  Every kernel probe pair
// entered while the tag is live — the response send path, IRQs and softirqs
// that interrupt the service burst, the scheduler-wait frames of a
// preempted reactor — accumulates under (tag, event) in the profile's
// requests() rows, which is what lets analysis decompose one slow request
// into named kernel paths.  The receive of request N happens *before* its
// tag exists (the reactor is blocked in sys_poll with the previous request
// finished), so poll/read wait time is deliberately untagged: a request's
// measured window runs from pickup to response handoff.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/machine.hpp"
#include "kernel/program.hpp"
#include "sim/time.hpp"

namespace ktau::apps {

/// Wire and service-time shape shared by server and clients.
struct ServeShape {
  std::uint64_t req_bytes = 128;
  std::uint64_t rsp_bytes = 256;
  /// Mean user-mode service compute per request.
  sim::TimeNs service_mean = 300 * sim::kMicrosecond;
  /// Service draw is uniform in [mean*(1-jitter), mean*(1+jitter)] — a
  /// bounded spread, so the workload's own tail stays short and tail
  /// inflation measured under faults is attributable to kernel paths.
  double service_jitter = 0.5;
};

/// One request served by a reactor, in pickup order.
struct ServedRequest {
  std::uint32_t tag = 0;       // key into TaskProfile::requests()
  int fd = -1;                 // connection it arrived on
  std::uint64_t seq = 0;       // per-connection sequence number
  sim::TimeNs picked_up = 0;   // cursor when the reactor resumed with it
  sim::TimeNs done = 0;        // cursor after the response send returned
  /// The service compute drawn for this request (before any SMP dilation
  /// or interrupt disruption) — lets analysis split the window into
  /// intended service vs. kernel paths vs. residual slowdown.
  sim::TimeNs service = 0;
};

struct ServeLog {
  std::vector<ServedRequest> served;
};

/// One completed request as the client saw it.
struct ClientRecord {
  sim::TimeNs scheduled = 0;  // open loop: Poisson arrival; closed: issue
  sim::TimeNs completed = 0;  // cursor when the response was read
};

struct ClientLog {
  std::vector<ClientRecord> requests;
};

/// Spawns one reactor serving `conns` (local socket fds), pinned to
/// `affinity`.  Tags are tag_base+1, tag_base+2, … in pickup order; space
/// tag_base at least the expected request count apart between reactors.
/// The reactor loops forever (it ends the run blocked in sys_poll), so the
/// caller harvests its live profile after Cluster::run returns.
kernel::Task& spawn_reactor(kernel::Machine& m, std::vector<int> conns,
                            const ServeShape& shape, std::uint64_t service_seed,
                            std::uint32_t tag_base, ServeLog& log,
                            kernel::CpuMask affinity, const std::string& name);

/// Closed-loop client: send, wait for the response, repeat `count` times.
kernel::Task& spawn_closed_client(kernel::Machine& m, int fd,
                                  const ServeShape& shape, std::uint32_t count,
                                  ClientLog& log, const std::string& name);

/// Open-loop client: a sender that fires requests at the given absolute
/// arrival times regardless of responses, and a receiver that collects
/// responses (FIFO per connection).  Latency for arrival i is
/// requests[i].completed - arrivals[i], which includes any queueing the
/// server built up — the open-loop discipline.
void spawn_open_client(kernel::Machine& m, int fd, const ServeShape& shape,
                       std::vector<sim::TimeNs> arrivals, ClientLog& log,
                       const std::string& name_prefix);

/// Poisson arrival schedule: `count` absolute times starting at `start`,
/// exponential interarrivals with mean 1/rate_hz, drawn from a fresh
/// sim::Rng stream seeded with `seed`.
std::vector<sim::TimeNs> poisson_arrivals(std::uint64_t seed, double rate_hz,
                                          std::uint32_t count,
                                          sim::TimeNs start);

}  // namespace ktau::apps
