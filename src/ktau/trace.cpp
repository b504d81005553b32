#include "ktau/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace ktau::meas {

TraceBuffer::TraceBuffer(std::size_t capacity) : ring_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("TraceBuffer: capacity must be > 0");
  }
}

void TraceBuffer::push(const TraceRecord& rec) {
  ring_[static_cast<std::size_t>(next_seq_ % ring_.size())] = rec;
  ++next_seq_;
  if (next_seq_ - oldest_seq_ > ring_.size()) ++oldest_seq_;
}

std::size_t TraceBuffer::resize(std::size_t capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("TraceBuffer: capacity must be > 0");
  }
  // Shrinking keeps the newest `capacity` records; everything older is
  // discarded *counted*: bumping oldest_seq_ makes the discarded range
  // [old oldest, new oldest) read as dropped records through read_from,
  // exactly as if push had overwritten them.
  const std::uint64_t new_oldest = next_seq_ - oldest_seq_ > capacity
                                       ? next_seq_ - capacity
                                       : oldest_seq_;
  std::vector<TraceRecord> next(capacity);
  for (std::uint64_t seq = new_oldest; seq < next_seq_; ++seq) {
    next[static_cast<std::size_t>(seq % capacity)] =
        ring_[static_cast<std::size_t>(seq % ring_.size())];
  }
  ring_ = std::move(next);
  oldest_seq_ = new_oldest;
  return static_cast<std::size_t>(next_seq_ - new_oldest);
}

TraceDrain TraceBuffer::read_from(std::uint64_t cursor,
                                  std::vector<TraceRecord>& out) const {
  TraceDrain d;
  d.next_seq = next_seq_;
  // A cursor from "the future" (stale client of a reset kernel) clamps to
  // the end: nothing to deliver, no loss invented.
  const std::uint64_t base =
      std::min(std::max(cursor, oldest_seq_), next_seq_);
  if (base > cursor) {
    d.loss.dropped = base - cursor;
    d.loss.first_seq = cursor;
  }
  out.reserve(out.size() + static_cast<std::size_t>(next_seq_ - base));
  for (std::uint64_t seq = base; seq < next_seq_; ++seq) {
    out.push_back(ring_[static_cast<std::size_t>(seq % ring_.size())]);
  }
  return d;
}

}  // namespace ktau::meas
