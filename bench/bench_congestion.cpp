// Congestion scenario family (DESIGN.md §13): incast, checkpoint-IO burst,
// and shared-link interference, each run under all three TCP stack models.
//
// The point of the gates: the merged kernel view must attribute each
// pattern's stall to the *correct* kernel path, and the attribution must
// move with the model —
//   - incast (lossy fan-in): Fixed stalls on tcp_retransmit_timer, Reno
//     recovers in tcp_fast_retransmit, RACK in tcp_rack_reo_timer (fed by
//     tcp_pacing_timer); the sink's softirq backlog dominates any sender's;
//   - checkpoint (loss-free fan-in): no recovery path fires at all; the
//     stall is NIC serialization, pinned against payload / line rate;
//   - shared link (bulk + ping on one NIC, reordering wire): Fixed queues
//     the whole transfer ahead of the ping convoy, the windowed models
//     bound the queue by cwnd; Reno misreads reordering as loss (spurious
//     retransmits), RACK absorbs it.
#include <cstring>
#include <vector>

#include "experiments/congestion.hpp"
#include "experiments/harness.hpp"

namespace ktau::expt {
namespace {

constexpr knet::StackKind kStacks[] = {
    knet::StackKind::Fixed, knet::StackKind::Reno, knet::StackKind::Rack};
constexpr CongestionPattern kPatterns[] = {CongestionPattern::Incast,
                                           CongestionPattern::Checkpoint,
                                           CongestionPattern::SharedLink};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<TrialSpec> congestion_trials(const ScenarioParams& p) {
  std::vector<TrialSpec> trials;
  auto add = [&](CongestionPattern pat, knet::StackKind st,
                 const std::string& label) {
    CongestionConfig cfg;
    cfg.pattern = pat;
    cfg.stack = st;
    cfg.scale = p.scale;
    cfg.seed = p.seed(cfg.seed);
    trials.push_back({label, [cfg] {
      auto res = run_congestion(cfg);
      return trial_result(
          std::move(res),
          {{"exec_sec", res.exec_sec},
           {"retx_timer_sec", res.retx_timer_sec},
           {"fast_retx_sec", res.fast_retx_sec},
           {"pacing_sec", res.pacing_sec},
           {"reo_sec", res.reo_sec},
           {"sink_softirq_sec", res.sink_softirq_sec},
           {"sender_nic_tx_sec", res.sender_nic_tx_sec},
           {"ping_done_sec", res.ping_done_sec},
           {"retransmits", static_cast<double>(res.net.retransmits)},
           {"spurious_retransmits",
            static_cast<double>(res.net.spurious_retransmits)}});
    }});
  };
  for (const auto pat : kPatterns) {
    for (const auto st : kStacks) {
      add(pat, st, pattern_name(pat) + "/" +
                       std::string(knet::stack_kind_name(st)));
    }
  }
  // Same config + seed as incast/reno, run as an independent trial (under
  // --jobs, on another worker): the determinism gate compares bit for bit.
  add(CongestionPattern::Incast, knet::StackKind::Reno, "incast/reno-repeat");
  return trials;
}

void congestion_report(Report& rep, const ScenarioParams&,
                       const std::vector<TrialResult>& results) {
  // results arrive in registration order: pattern-major, stack-minor.
  auto res = [&](int pattern, int stack) -> const CongestionResult& {
    return payload<CongestionResult>(results[pattern * 3 + stack]);
  };
  constexpr int kFixed = 0, kReno = 1, kRack = 2;

  for (int pat = 0; pat < 3; ++pat) {
    rep.printf("\n%s:\n", pattern_name(kPatterns[pat]).c_str());
    for (int st = 0; st < 3; ++st) {
      const auto& r = res(pat, st);
      rep.printf("  %-5s exec %8.3f s | retx-timer %7.3f s | fast-retx "
                 "%7.3f s | pacing %7.3f s | reo %7.3f s | retx %llu "
                 "(%llu spurious)\n",
                 std::string(knet::stack_kind_name(kStacks[st])).c_str(),
                 r.exec_sec,
                 r.retx_timer_sec, r.fast_retx_sec, r.pacing_sec, r.reo_sec,
                 static_cast<unsigned long long>(r.net.retransmits),
                 static_cast<unsigned long long>(
                     r.net.spurious_retransmits));
    }
  }
  {
    const auto& ck = res(1, kFixed);
    rep.printf("\ncheckpoint wire: sender NIC occupancy %.3f s vs ideal "
               "%.3f s\n",
               ck.sender_nic_tx_sec, ck.ideal_wire_sec);
    rep.printf("shared link ping completion: fixed %.3f s | reno %.3f s | "
               "rack %.3f s\n\n",
               res(2, kFixed).ping_done_sec, res(2, kReno).ping_done_sec,
               res(2, kRack).ping_done_sec);
  }

  // -- determinism ----------------------------------------------------------
  const auto& reno_a = res(0, kReno);
  const auto& reno_b = payload<CongestionResult>(results[9]);
  rep.gate("same seed => bit-identical run (independent trials)",
           same_bits(reno_a.exec_sec, reno_b.exec_sec) &&
               reno_a.engine_events == reno_b.engine_events &&
               reno_a.net.retransmits == reno_b.net.retransmits &&
               reno_a.fault_totals.segments_dropped ==
                   reno_b.fault_totals.segments_dropped &&
               same_bits(reno_a.fast_retx_sec, reno_b.fast_retx_sec));

  // -- every pattern completes under every model ----------------------------
  bool complete = true;
  for (int pat = 0; pat < 3; ++pat) {
    for (int st = 0; st < 3; ++st) {
      const auto& r = res(pat, st);
      complete = complete && r.bytes_received == r.bytes_expected;
    }
  }
  rep.gate("all payload delivered under every model", complete);

  // -- incast: recovery attributed to the model's own path ------------------
  {
    const auto& f = res(0, kFixed);
    rep.gate("incast/fixed: stall on the retransmission timer only",
             f.net.retransmits > 0 && f.retx_timer_sec > 0 &&
                 f.fast_retx_sec == 0 && f.pacing_sec == 0 &&
                 f.reo_sec == 0);
    const auto& rn = res(0, kReno);
    rep.gate("incast/reno: recovery in fast retransmit, timer silent",
             rn.net.retransmits > 0 && rn.fast_retx_sec > 0 &&
                 rn.retx_timer_sec == 0 && rn.pacing_sec == 0 &&
                 rn.reo_sec == 0);
    const auto& rk = res(0, kRack);
    rep.gate("incast/rack: recovery in the reo timer off the pacing queue",
             rk.net.retransmits > 0 && rk.reo_sec > 0 && rk.pacing_sec > 0 &&
                 rk.retx_timer_sec == 0 && rk.fast_retx_sec == 0);
    rep.gate("incast: RTO stalls cost more than dup-ACK recovery",
             f.exec_sec > 1.2 * rn.exec_sec);
    bool sink_dominates = true;
    for (int st = 0; st < 3; ++st) {
      sink_dominates = sink_dominates &&
                       res(0, st).sink_softirq_sec >
                           res(0, st).max_sender_softirq_sec;
    }
    rep.gate("incast: softirq backlog concentrates at the sink",
             sink_dominates);
  }

  // -- checkpoint: the stall is NIC serialization, nothing else -------------
  {
    bool quiet = true, wire = true;
    for (int st = 0; st < 3; ++st) {
      const auto& r = res(1, st);
      quiet = quiet && r.net.retransmits == 0 && r.retx_timer_sec == 0 &&
              r.fast_retx_sec == 0 && r.reo_sec == 0;
      const double ratio = r.sender_nic_tx_sec / r.ideal_wire_sec;
      wire = wire && ratio > 0.98 && ratio < 1.10;
      wire = wire && r.exec_sec >= r.ideal_wire_sec / 8.0;  // per-sender wire
    }
    rep.gate("checkpoint: loss-free, no recovery path fires", quiet);
    rep.gate("checkpoint: sender NIC occupancy == payload / line rate", wire);
    bool sink_dominates = true;
    for (int st = 0; st < 3; ++st) {
      sink_dominates = sink_dominates &&
                       res(1, st).sink_softirq_sec >
                           res(1, st).max_sender_softirq_sec;
    }
    rep.gate("checkpoint: IO node's softirq backlog dominates",
             sink_dominates);
  }

  // -- shared link: cwnd bounds the egress queue; reordering splits models --
  {
    const auto& f = res(2, kFixed);
    const auto& rn = res(2, kReno);
    const auto& rk = res(2, kRack);
    rep.gate("shared link: ping convoy stalls behind Fixed's NIC queue",
             f.ping_done_sec > 1.5 * rn.ping_done_sec &&
                 f.ping_done_sec > 1.5 * rk.ping_done_sec);
    rep.gate("shared link: Reno misreads reordering as loss",
             rn.net.spurious_retransmits > 0 && rn.fast_retx_sec > 0);
    rep.gate("shared link: RACK and Fixed absorb reordering",
             rk.net.spurious_retransmits == 0 &&
                 f.net.spurious_retransmits == 0 && rk.reo_sec == 0);
  }
}

[[maybe_unused]] const bool registered = register_scenario(
    {.name = "congestion",
     .title = "Congestion patterns under pluggable TCP stack models "
              "(incast / checkpoint burst / shared-link interference)",
     .order = 64,
     .trials = congestion_trials,
     .report = congestion_report});

}  // namespace
}  // namespace ktau::expt
