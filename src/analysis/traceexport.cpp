#include "analysis/traceexport.hpp"

#include <unordered_map>

namespace ktau::analysis {

meas::TraceSnapshot merge_trace_frames(
    const std::vector<meas::TraceSnapshot>& frames) {
  meas::TraceSnapshot out;
  std::unordered_map<meas::EventId, std::size_t> event_index;
  std::unordered_map<meas::Pid, std::size_t> task_index;
  for (const meas::TraceSnapshot& frame : frames) {
    out.timestamp = frame.timestamp;
    if (out.cpu_freq == 0) out.cpu_freq = frame.cpu_freq;
    for (const meas::EventDesc& e : frame.events) {
      const auto [it, fresh] = event_index.try_emplace(e.id, out.events.size());
      if (fresh) out.events.push_back(e);
    }
    for (const meas::TaskTraceData& t : frame.tasks) {
      const auto [it, fresh] = task_index.try_emplace(t.pid, out.tasks.size());
      if (fresh) {
        out.tasks.emplace_back();
        out.tasks.back().pid = t.pid;
        out.tasks.back().base_seq = t.base_seq;
      }
      meas::TaskTraceData& merged = out.tasks[it->second];
      if (merged.name.empty()) merged.name = t.name;
      if (!fresh && t.base_seq > merged.next_seq) {
        // Records between the frames that no frame accounts for: a reader
        // reset or a skipped frame.  Surface it, don't close over it.
        merged.gaps.push_back(meas::TraceGap{
            t.records.empty() ? frame.timestamp : t.records.front().timestamp,
            t.base_seq - merged.next_seq, merged.next_seq});
        merged.dropped += t.base_seq - merged.next_seq;
      }
      merged.records.insert(merged.records.end(), t.records.begin(),
                            t.records.end());
      merged.dropped += t.dropped;
      merged.gaps.insert(merged.gaps.end(), t.gaps.begin(), t.gaps.end());
      if (t.next_seq > merged.next_seq) merged.next_seq = t.next_seq;
    }
  }
  return out;
}

}  // namespace ktau::analysis
