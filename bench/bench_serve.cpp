// Request/response serving scenario (DESIGN.md §14): reactor-per-CPU
// server, closed- and open-loop clients, tail-latency percentile tiles,
// and per-request kernel attribution of the slowest 1%.
//
// The point of the gates:
//   - closed loop: throughput saturates with server CPUs — adding CPUs
//     buys capacity because the NIC IRQ load round-robins with them;
//   - open loop + IRQ storm at the server: the far tail (p999) inflates
//     at least 2x while the median holds within 10%, and the tagged
//     probe pairs attribute the inflation to interrupt paths (the storm
//     handler / do_IRQ / softirq), not to the request's own send path;
//   - open loop + wire loss: every stack model recovers and completes,
//     and the Fixed model's RTO stalls blow the far tail out by an order
//     of magnitude over the quiet run.
#include <cmath>
#include <cstring>
#include <vector>

#include "experiments/harness.hpp"
#include "experiments/serve.hpp"

namespace ktau::expt {
namespace {

constexpr knet::StackKind kStacks[] = {
    knet::StackKind::Fixed, knet::StackKind::Reno, knet::StackKind::Rack};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<TrialSpec> serve_trials(const ScenarioParams& p) {
  std::vector<TrialSpec> trials;
  auto add = [&](ServeConfig cfg, const std::string& label) {
    cfg.scale = p.scale;
    cfg.seed = p.seed(cfg.seed);
    trials.push_back({label, [cfg] {
      auto res = run_serve(cfg);
      return trial_result(
          std::move(res),
          {{"throughput_rps", res.throughput_rps},
           {"requests", static_cast<double>(res.requests_completed)},
           {"p50_ms", res.latency.p50 * 1e3},
           {"p95_ms", res.latency.p95 * 1e3},
           {"p99_ms", res.latency.p99 * 1e3},
           {"p999_ms", res.latency.p999 * 1e3},
           {"tail_irq_softirq_us_per_req",
            res.tail_interrupt_sec_per_req * 1e6},
           {"body_irq_softirq_us_per_req",
            res.body_interrupt_sec_per_req * 1e6},
           {"storm_irqs", static_cast<double>(res.fault_totals.storm_irqs)},
           {"net_retransmits", static_cast<double>(res.net.retransmits)},
           {"net_rx_penalized_segments",
            static_cast<double>(res.net.rx_penalized)},
           {"net_read_errors", static_cast<double>(res.net.read_errors)},
           {"server_rx_segments",
            static_cast<double>(res.server_net.rx_segments)}});
    }});
  };

  for (const int cpus : {1, 2, 4}) {
    ServeConfig cfg;
    cfg.mode = ServeMode::Closed;
    cfg.server_cpus = cpus;
    cfg.stack = p.stack;
    add(cfg, "closed/c" + std::to_string(cpus));
  }

  ServeConfig open;
  open.mode = ServeMode::Open;
  open.server_cpus = 2;
  open.stack = p.stack;
  add(open, "open/quiet");

  ServeConfig storm = open;
  storm.irq_storm = true;
  add(storm, "open/storm");
  // Same config + seed, run as an independent trial (under --jobs, on
  // another worker): the determinism gate compares bit for bit.
  add(storm, "open/storm-repeat");

  for (const auto st : kStacks) {
    ServeConfig loss = open;
    loss.stack = st;
    loss.drop_prob = 0.01;
    add(loss, "open/loss/" + std::string(knet::stack_kind_name(st)));
  }
  return trials;
}

void serve_report(Report& rep, const ScenarioParams&,
                  const std::vector<TrialResult>& results) {
  const char* kLabels[] = {"closed/c1",  "closed/c2",       "closed/c4",
                           "open/quiet", "open/storm",      "storm-repeat",
                           "loss/fixed", "loss/reno",       "loss/rack"};
  auto res = [&](int i) -> const ServeResult& {
    return payload<ServeResult>(results[i]);
  };

  for (int i = 0; i < 9; ++i) {
    const auto& r = res(i);
    rep.printf("%-12s %6llu req | %8.1f req/s | p50 %7.3f ms | p99 %8.3f "
               "ms | p999 %8.3f ms\n",
               kLabels[i],
               static_cast<unsigned long long>(r.requests_completed),
               r.throughput_rps, r.latency.p50 * 1e3, r.latency.p99 * 1e3,
               r.latency.p999 * 1e3);
  }
  {
    const auto& st = res(4);
    rep.printf("\nstorm tail breakdown (slowest 1%%, threshold %.3f ms):\n",
               st.tail.threshold_sec * 1e3);
    int shown = 0;
    for (const auto& path : st.tail.paths) {
      if (shown++ == 5) break;
      rep.printf("  %-18s tail %9.1f us/req | body %9.1f us/req\n",
                 path.name.c_str(), path.tail_sec_per_req * 1e6,
                 path.body_sec_per_req * 1e6);
    }
    rep.printf("\n");
  }

  // -- determinism ----------------------------------------------------------
  const auto& sa = res(4);
  const auto& sb = res(5);
  rep.gate("same seed => bit-identical run (independent trials)",
           same_bits(sa.throughput_rps, sb.throughput_rps) &&
               same_bits(sa.latency.p999, sb.latency.p999) &&
               sa.requests_completed == sb.requests_completed &&
               sa.engine_events == sb.engine_events &&
               sa.fault_totals.storm_irqs == sb.fault_totals.storm_irqs);

  // -- closed loop: saturation scales with server CPUs ----------------------
  bool served_all = true;
  for (int i = 0; i < 3; ++i) {
    served_all =
        served_all && res(i).requests_completed == res(i).requests_offered;
  }
  rep.gate("closed loop: every offered request served", served_all);
  rep.gate("closed loop: throughput scales with server CPUs",
           res(1).throughput_rps > 1.4 * res(0).throughput_rps &&
               res(2).throughput_rps > 1.3 * res(1).throughput_rps);

  // -- open loop: storm inflates the far tail, not the median ---------------
  const auto& quiet = res(3);
  rep.gate("open loop: all arrivals answered (quiet and storm)",
           quiet.requests_completed == quiet.requests_offered &&
               sa.requests_completed == sa.requests_offered);
  rep.gate("quiet run is interference-free",
           quiet.fault_totals.storm_irqs == 0 && quiet.net.retransmits == 0);
  rep.gate("storm: p999 inflates >= 2x while p50 holds within 10%",
           sa.fault_totals.storm_irqs > 0 &&
               sa.latency.p999 >= 2.0 * quiet.latency.p999 &&
               std::fabs(sa.latency.p50 - quiet.latency.p50) <=
                   0.10 * quiet.latency.p50);
  rep.gate("storm: tail attribution lands on interrupt paths",
           sa.top_tail_path_is_interrupt &&
               sa.tail_interrupt_sec_per_req >=
                   2.0 * sa.body_interrupt_sec_per_req);
  rep.gate("every served request carries tagged kernel paths",
           quiet.tagged_requests == quiet.requests_completed &&
               sa.tagged_requests == sa.requests_completed &&
               quiet.tagged_kernel_sec > 0);

  // -- open loop + loss: every stack recovers; Fixed pays the RTO tail ------
  bool loss_ok = true;
  for (int i = 6; i < 9; ++i) {
    loss_ok = loss_ok && res(i).requests_completed == res(i).requests_offered &&
              res(i).net.retransmits > 0;
  }
  rep.gate("loss: completes under every stack with retransmissions", loss_ok);
  rep.gate("loss/fixed: RTO stalls blow out the far tail",
           res(6).latency.p999 >= 5.0 * quiet.latency.p999);
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "serve",
     .title = "Request/response serving: tail-latency tiles and "
              "per-request kernel attribution",
     .order = 65,
     .trials = serve_trials,
     .report = serve_report});

}  // namespace
}  // namespace ktau::expt
