#include "clients/extract.hpp"

namespace ktau::clients {

const meas::ProfileSnapshot& Extractor::extract_profile(ExtractStats& stats) {
  if (!delta_) handle_.reset_profile_cache();
  const meas::ProfileSnapshot& snap = handle_.get_profile_delta(scope(), pids_);
  stats.profile_bytes += handle_.last_profile_row_bytes();
  return snap;
}

meas::TraceSnapshot Extractor::extract_trace(ExtractStats& stats) {
  meas::TraceSnapshot trace = handle_.get_trace_incremental(scope(), pids_);
  stats.trace_bytes += handle_.last_trace_wire_bytes();
  for (const auto& t : trace.tasks) {
    stats.records += t.records.size();
    stats.dropped += t.dropped;
  }
  return trace;
}

void Extractor::charge(kernel::Task& task, const ExtractStats& stats,
                       std::uint64_t per_kb) {
  if (task.cpu == nullptr) return;
  task.cpu->clock.consume_cycles((stats.total_bytes() * per_kb + 1023) / 1024);
}

}  // namespace ktau::clients
