#include "ktau/procfs.hpp"

#include <algorithm>
#include <utility>

namespace ktau::meas {

ProcKtau::ProcKtau(KtauSystem& sys, TaskTable& tasks, sim::FreqHz cpu_freq,
                   std::function<sim::TimeNs()> now)
    : sys_(sys), tasks_(tasks), cpu_freq_(cpu_freq), now_(std::move(now)) {}

std::vector<TaskSnapshotInput> ProcKtau::select(Scope scope,
                                                std::span<const Pid> pids,
                                                bool include_reaped) const {
  std::vector<TaskSnapshotInput> selected;
  switch (scope) {
    case Scope::All:
      selected = tasks_.live_tasks();
      if (include_reaped) {
        for (const ReapedTask& r : sys_.reaped()) {
          selected.push_back(TaskSnapshotInput{r.pid, &r.name, &r.profile});
        }
      }
      break;
    case Scope::Self:
    case Scope::Other:
      for (const Pid pid : pids) {
        if (auto view = tasks_.find_task(pid)) {
          selected.push_back(*view);
        } else if (include_reaped) {
          // Pids are never reused, so a named pid that is no longer live
          // can only be an exited task.
          const auto& reaped = sys_.reaped();
          const auto it = std::find_if(
              reaped.begin(), reaped.end(),
              [pid](const ReapedTask& r) { return r.pid == pid; });
          if (it != reaped.end()) {
            selected.push_back(TaskSnapshotInput{it->pid, &it->name,
                                                 &it->profile});
          }
        }
      }
      break;
  }
  return selected;
}

std::size_t ProcKtau::profile_size(Scope scope, std::span<const Pid> pids,
                                   ProfileCursor cursor) const {
  // Session-less by design: computing the size means doing the
  // serialization and reporting its length; nothing is cached.
  const auto selected =
      select(scope, pids, /*include_reaped=*/scope == Scope::All);
  return encode_profile_delta(sys_.registry(), now_(), cpu_freq_, selected,
                              cursor, sys_.extraction_epoch() + 1)
      .size();
}

bool ProcKtau::profile_read(Scope scope, std::span<const Pid> pids,
                            ProfileCursor cursor, std::size_t capacity,
                            std::vector<std::byte>& out) {
  out.clear();
  const auto selected =
      select(scope, pids, /*include_reaped=*/scope == Scope::All);
  auto bytes = encode_profile_delta(sys_.registry(), now_(), cpu_freq_,
                                    selected, cursor,
                                    sys_.extraction_epoch() + 1);
  if (bytes.size() > capacity) return false;  // grew since the size call
  out = std::move(bytes);
  sys_.advance_extraction_epoch();
  return true;
}

std::vector<std::byte> ProcKtau::trace_read(Scope scope,
                                            std::span<const Pid> pids,
                                            const TraceCursor& cursor) const {
  const auto selected = select(scope, pids, /*include_reaped=*/true);
  std::vector<TaskTraceInput> inputs;
  // Read record storage must outlive encode_trace_incremental.
  std::vector<std::vector<TraceRecord>> storage;
  storage.reserve(selected.size());
  inputs.reserve(selected.size());
  for (const TaskSnapshotInput& view : selected) {
    const TraceBuffer* ring = view.profile->trace();
    if (ring == nullptr) continue;
    const std::uint64_t base = cursor.seq(view.pid);
    std::vector<TraceRecord> recs;
    const TraceDrain d = ring->read_from(base, recs);
    // Skip clean tasks the reader already knows — that is where the
    // steady-state byte saving comes from.  A never-seen task ships even
    // when empty so the reader learns its cursor (and its name).
    if (recs.empty() && d.loss.dropped == 0 && cursor.known(view.pid)) {
      continue;
    }
    storage.push_back(std::move(recs));
    TaskTraceInput in;
    in.pid = view.pid;
    in.name = view.name;
    in.dropped = d.loss.dropped;
    in.records = &storage.back();
    in.base_seq = base;
    in.next_seq = d.next_seq;
    in.first_lost_seq = d.loss.first_seq;
    inputs.push_back(in);
  }
  return encode_trace_incremental(sys_.registry(), now_(), cpu_freq_, inputs,
                                  cursor.names);
}

std::size_t ProcKtau::ctl_set_trace_capacity(std::size_t capacity, Scope scope,
                                             std::span<const Pid> pids,
                                             CpuClock* clock) {
  if (capacity == 0) {
    throw std::invalid_argument("ctl_set_trace_capacity: capacity must be > 0");
  }
  if (clock != nullptr) sys_.charge_control(*clock, ctl_cost());
  const auto selected = select(scope, pids, /*include_reaped=*/false);
  std::size_t resized = 0;
  for (const TaskSnapshotInput& view : selected) {
    TaskProfile* prof = tasks_.find_profile(view.pid);
    if (prof == nullptr || prof->trace() == nullptr) continue;
    if (prof->trace()->capacity() == capacity) continue;
    const std::size_t retained = prof->trace()->resize(capacity);
    if (clock != nullptr) {
      sys_.charge_control(
          *clock, sys_.config().overhead.resize_per_record *
                      static_cast<double>(retained));
    }
    ++resized;
  }
  sys_.set_trace_capacity(capacity);
  return resized;
}

OverheadReport ProcKtau::ctl_overhead() const {
  OverheadReport rep;
  const sim::OnlineStats& start = sys_.start_overhead();
  const sim::OnlineStats& stop = sys_.stop_overhead();
  rep.start_count = start.count();
  rep.start_mean = start.mean();
  rep.start_stddev = start.stddev();
  // With charge_overhead off (or KTAU disabled) there are no samples; report
  // 0 rather than the accumulator's NaN sentinel so the /proc report stays
  // printable.
  rep.start_min = start.empty() ? 0.0 : start.min();
  rep.stop_count = stop.count();
  rep.stop_mean = stop.mean();
  rep.stop_stddev = stop.stddev();
  rep.stop_min = stop.empty() ? 0.0 : stop.min();
  rep.total_cycles = sys_.total_overhead_cycles();
  return rep;
}

}  // namespace ktau::meas
