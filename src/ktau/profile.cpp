#include "ktau/profile.hpp"

#include <algorithm>
#include <stdexcept>

namespace ktau::meas {

void AtomicMetrics::add(double v) {
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
  sum += v;
}

void AtomicMetrics::merge(const AtomicMetrics& o) {
  if (o.count == 0) return;
  if (count == 0) {
    *this = o;
    return;
  }
  count += o.count;
  sum += o.sum;
  min = std::min(min, o.min);
  max = std::max(max, o.max);
  epoch = std::max(epoch, o.epoch);
}

const std::uint64_t TaskProfile::kUnboundEpoch = 1;

EventMetrics& TaskProfile::slot(EventId ev) {
  if (ev >= events_.size()) {
    // Grow capacity geometrically so the probe path amortizes to zero
    // allocations, but keep size() exact: consumers index the registry by
    // row position and must not see rows beyond the highest fired id.
    if (ev >= events_.capacity()) {
      events_.reserve(
          std::max<std::size_t>(ev + 1, events_.capacity() * 2));
    }
    events_.resize(ev + 1);
  }
  return events_[ev];
}

EventMetrics& TaskProfile::request_row(std::uint64_t key) {
  std::uint32_t& head = request_head_[key >> 32];
  for (std::uint32_t row = head; row != 0; row = request_next_[row - 1]) {
    if (requests_[row - 1].first == key) return requests_[row - 1].second;
  }
  request_next_.push_back(head);
  requests_.emplace_back(key, EventMetrics{});
  head = static_cast<std::uint32_t>(requests_.size());
  return requests_.back().second;
}

void TaskProfile::entry(EventId ev, sim::Cycles now) {
  stack_.push_back(Frame{ev, now, 0, request_tag_});
}

sim::Cycles TaskProfile::exit(EventId ev, sim::Cycles now) {
  if (stack_.empty() || stack_.back().ev != ev) {
    throw std::logic_error(
        "TaskProfile::exit: unbalanced instrumentation (exit without "
        "matching entry)");
  }
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (now < frame.start) {
    throw std::logic_error("TaskProfile::exit: time went backwards");
  }
  const sim::Cycles incl = now - frame.start;
  const sim::Cycles excl = incl >= frame.child ? incl - frame.child : 0;
  const std::uint64_t epoch = *epoch_src_;
  EventMetrics& m = slot(ev);
  ++m.count;
  m.incl += incl;
  m.excl += excl;
  m.epoch = epoch;
  if (!stack_.empty()) stack_.back().child += incl;
  if (callpath_) {
    const EventId parent = stack_.empty() ? kCallpathRoot : stack_.back().ev;
    EventMetrics& e = edges_[bridge_key(parent, ev)];
    ++e.count;
    e.incl += incl;
    e.excl += excl;
    e.epoch = epoch;
  }
  if (user_context_ != kNoEventId) {
    EventMetrics& b = bridge_[bridge_key(user_context_, ev)];
    ++b.count;
    b.incl += incl;
    b.excl += excl;
    b.epoch = epoch;
  }
  last_closed_tag_ = frame.tag;
  if (frame.tag != 0) {
    EventMetrics& r = request_row(bridge_key(frame.tag, ev));
    ++r.count;
    r.incl += incl;
    r.excl += excl;
    r.epoch = epoch;
  }
  dirty_epoch_ = epoch;
  return incl;
}

void TaskProfile::atomic(EventId ev, double value) {
  AtomicMetrics& am = atomics_[ev];
  am.add(value);
  am.epoch = *epoch_src_;
  dirty_epoch_ = am.epoch;
}

const EventMetrics& TaskProfile::metrics(EventId ev) const {
  static const EventMetrics kEmpty;
  if (ev >= events_.size()) return kEmpty;
  return events_[ev];
}

void TaskProfile::merge(const TaskProfile& other) {
  if (other.events_.size() > events_.size()) {
    events_.resize(other.events_.size());
  }
  for (std::size_t i = 0; i < other.events_.size(); ++i) {
    events_[i].merge(other.events_[i]);
  }
  for (const auto& [ev, am] : other.atomics_) atomics_[ev].merge(am);
  for (const auto& [key, m] : other.bridge_) bridge_[key].merge(m);
  for (const auto& [key, m] : other.edges_) edges_[key].merge(m);
  for (const auto& [key, m] : other.requests_) request_row(key).merge(m);
  callpath_ = callpath_ || other.callpath_;
  dirty_epoch_ = std::max(dirty_epoch_, other.dirty_epoch_);
}

}  // namespace ktau::meas
