#include "ktau/system.hpp"

#include <algorithm>
#include <cmath>

namespace ktau::meas {

namespace {

/// Σ -log(u_i) over a batch of exponential draws' uniforms, kept as their
/// product so the batch costs one log.  The product is folded into a log
/// sum before it can underflow: every u is at least 2^-53, so one more
/// factor taken from at least 2^-900 stays a normal double.
class NegLogSum {
 public:
  void add(double u) {
    if (u <= 0.0) u = 0x1.0p-53;  // sim::Rng::exponential's log(0) guard
    product_ *= u;
    if (product_ < 0x1.0p-900) {
      log_sum_ += std::log(product_);
      product_ = 1.0;
    }
  }

  double value() const {
    return -(product_ < 1.0 ? log_sum_ + std::log(product_) : log_sum_);
  }

 private:
  double product_ = 1.0;
  double log_sum_ = 0.0;
};

}  // namespace

KtauSystem::CostShape KtauSystem::cost_shape(const OverheadModel& m,
                                             double min, double mean) {
  // Keep the overall mean at `mean` despite the outlier component.
  const double p = m.outlier_prob;
  const double base_mean =
      p > 0 ? (mean - p * m.outlier_mean) / (1.0 - p) : mean;
  return {min, std::max(base_mean, min + 1.0) - min, m.outlier_mean - min};
}

KtauSystem::KtauSystem(const KtauConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      start_cost_(cost_shape(cfg.overhead, cfg.overhead.start_min,
                             cfg.overhead.start_mean)),
      stop_cost_(cost_shape(cfg.overhead, cfg.overhead.stop_min,
                            cfg.overhead.stop_mean)),
      rng_(seed) {}

double KtauSystem::draw_cost(const CostShape& shape) {
  const double p = cfg_.overhead.outlier_prob;
  const bool outlier = p > 0 && rng_.bernoulli(p);
  return shape.min +
         rng_.exponential(outlier ? shape.outlier_scale : shape.base_scale);
}

void KtauSystem::charge(CpuClock& clock, double cycles) {
  const auto c = static_cast<sim::Cycles>(cycles);
  total_overhead_ += c;
  if (cfg_.charge_overhead) clock.consume_cycles(c);
}

void KtauSystem::entry(CpuClock& clock, TaskProfile* prof, EventId ev) {
  if (!cfg_.compiled_in) return;
  const Group g = info(ev).group;
  if (!contains(effective_mask(), g)) {
    charge(clock, cfg_.overhead.disabled_check);
    return;
  }
  // Timestamp is read at probe start; the bookkeeping cost that follows is
  // absorbed by the enclosing (parent) region, as in the real macros.
  const sim::Cycles now = clock.now_cycles();
  if (prof != nullptr) {
    prof->entry(ev, now);
    if (cfg_.tracing && contains(cfg_.trace_groups, g) &&
        prof->trace() != nullptr) {
      prof->trace()->push({clock.cursor, ev, TraceType::Entry,
                           prof->request_tag()});
      charge(clock, cfg_.overhead.trace_record_cost);
    }
  }
  const double cost = draw_cost(start_cost_);
  start_overhead_.add(cost);
  charge(clock, cost);
}

void KtauSystem::exit(CpuClock& clock, TaskProfile* prof, EventId ev) {
  if (!cfg_.compiled_in) return;
  const Group g = info(ev).group;
  // An exit probe pairs against the *in-flight entry*, not the current mask:
  // the runtime mask can legally flip between a probe pair (procfs ctl), and
  // early-returning here used to leave the pseudo-callstack unbalanced
  // (ON->OFF: the open frame never closed and the next exit threw; OFF->ON:
  // an exit with no matching entry threw immediately).  Four cases:
  //   enabled + matching frame  — the normal path (bit-identical to before);
  //   enabled + no frame        — entry ran while the group was off (OFF->ON
  //                               flip): nothing to close, but the probe body
  //                               still runs and charges full stop cost;
  //   disabled + matching frame — entry ran while the group was on (ON->OFF
  //                               flip): force-close the frame at full stop
  //                               cost so the stack stays balanced;
  //   disabled + no frame       — the steady disabled state: flag check only.
  const bool live = contains(effective_mask(), g);
  const bool paired = prof != nullptr && prof->current_event() == ev;
  if (!live && !paired) {
    charge(clock, cfg_.overhead.disabled_check);
    return;
  }
  const sim::Cycles now = clock.now_cycles();
  if (paired) {
    prof->exit(ev, now);
    if (cfg_.tracing && contains(cfg_.trace_groups, g) &&
        prof->trace() != nullptr) {
      prof->trace()->push({clock.cursor, ev, TraceType::Exit,
                           prof->last_closed_tag()});
      charge(clock, cfg_.overhead.trace_record_cost);
    }
  }
  const double cost = draw_cost(stop_cost_);
  stop_overhead_.add(cost);
  charge(clock, cost);
}

void KtauSystem::atomic(CpuClock& clock, TaskProfile* prof, EventId ev,
                        double value) {
  if (!cfg_.compiled_in) return;
  const Group g = info(ev).group;
  if (!contains(effective_mask(), g)) {
    charge(clock, cfg_.overhead.disabled_check);
    return;
  }
  if (prof != nullptr) {
    prof->atomic(ev, value);
    if (cfg_.tracing && contains(cfg_.trace_groups, g) &&
        prof->trace() != nullptr) {
      prof->trace()->push({clock.cursor, ev, TraceType::Atomic,
                           static_cast<std::uint64_t>(value)});
      charge(clock, cfg_.overhead.trace_record_cost);
    }
  }
  charge(clock, cfg_.overhead.atomic_cost);
}

void KtauSystem::hidden_pairs(CpuClock& clock, Group g, std::uint32_t pairs) {
  if (!cfg_.compiled_in || pairs == 0) return;
  if (!contains(effective_mask(), g)) {
    charge(clock, cfg_.overhead.disabled_check * pairs);
    return;
  }
  // Read the uniforms `pairs` explicit entry/exit draws would read, in
  // their order (start outlier test, start exponential, stop outlier test,
  // stop exponential), so every later draw sees the same stream; each
  // exponential lands in its mixture component's sum, and the total is the
  // sum of the per-draw costs up to floating-point order.
  const double p = cfg_.overhead.outlier_prob;
  NegLogSum start_base, start_outlier, stop_base, stop_outlier;
  for (std::uint32_t i = 0; i < pairs; ++i) {
    if (p > 0 && rng_.bernoulli(p)) {
      start_outlier.add(rng_.next_double());
    } else {
      start_base.add(rng_.next_double());
    }
    if (p > 0 && rng_.bernoulli(p)) {
      stop_outlier.add(rng_.next_double());
    } else {
      stop_base.add(rng_.next_double());
    }
  }
  charge(clock, pairs * (start_cost_.min + stop_cost_.min) +
                    start_cost_.base_scale * start_base.value() +
                    start_cost_.outlier_scale * start_outlier.value() +
                    stop_cost_.base_scale * stop_base.value() +
                    stop_cost_.outlier_scale * stop_outlier.value());
}

void KtauSystem::reap(Pid pid, std::string name, TaskProfile&& profile) {
  reaped_.push_back(ReapedTask{pid, std::move(name), std::move(profile)});
}

}  // namespace ktau::meas
