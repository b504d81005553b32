#include "analysis/views.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "sim/fault.hpp"

namespace ktau::analysis {

namespace {

double to_sec(sim::Cycles c, sim::FreqHz f) {
  return f == 0 ? 0.0 : static_cast<double>(c) / static_cast<double>(f);
}

}  // namespace

std::vector<EventRow> aggregate_events(const meas::ProfileSnapshot& snap) {
  // Sum by event id first (ids are dense and hashing them is cheap), then
  // fold the totals into name-keyed rows.
  std::unordered_map<meas::EventId, meas::EventEntry> totals;
  for (const auto& task : snap.tasks) {
    for (const auto& ev : task.events) {
      auto& t = totals[ev.id];
      t.id = ev.id;
      t.count += ev.count;
      t.incl += ev.incl;
      t.excl += ev.excl;
    }
  }
  // O(1) id -> descriptor lookup (ProfileSnapshot::event_name is a linear
  // scan).  Unknown ids keep the snapshot's contract: empty name, Sched.
  std::unordered_map<meas::EventId, const meas::EventDesc*> descs;
  descs.reserve(snap.events.size());
  for (const meas::EventDesc& e : snap.events) descs.emplace(e.id, &e);

  std::vector<EventRow> rows;
  std::unordered_map<std::string_view, std::size_t> by_name;
  for (const auto& [id, t] : totals) {
    const auto d = descs.find(id);
    const meas::EventDesc* desc = d == descs.end() ? nullptr : d->second;
    const std::string_view name =
        desc == nullptr ? std::string_view{} : std::string_view(desc->name);
    const auto [it, inserted] = by_name.try_emplace(name, rows.size());
    if (inserted) {
      EventRow row;
      row.name = std::string(name);
      row.group = desc == nullptr ? meas::Group::Sched : desc->group;
      rows.push_back(std::move(row));
    }
    EventRow& row = rows[it->second];
    row.count += t.count;
    row.incl_sec += to_sec(t.incl, snap.cpu_freq);
    row.excl_sec += to_sec(t.excl, snap.cpu_freq);
  }
  std::sort(rows.begin(), rows.end(), [](const EventRow& a, const EventRow& b) {
    return a.incl_sec > b.incl_sec;
  });
  return rows;
}

std::map<meas::Group, double> group_breakdown(
    const meas::ProfileSnapshot& snap, const meas::TaskProfileData& task) {
  std::map<meas::Group, double> out;
  for (const auto& ev : task.events) {
    out[snap.event_group(ev.id)] += to_sec(ev.excl, snap.cpu_freq);
  }
  return out;
}

std::vector<EventRow> kernel_within_user(const meas::ProfileSnapshot& snap,
                                         const meas::TaskProfileData& task,
                                         meas::EventId user_ev) {
  std::vector<EventRow> rows;
  for (const auto& br : task.bridge) {
    if (br.user_event != user_ev) continue;
    EventRow row;
    row.name = std::string(snap.event_name(br.kernel_event));
    row.group = snap.event_group(br.kernel_event);
    row.count = br.count;
    row.incl_sec = to_sec(br.incl, snap.cpu_freq);
    row.excl_sec = to_sec(br.excl, snap.cpu_freq);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const EventRow& a, const EventRow& b) {
    return a.excl_sec > b.excl_sec;
  });
  return rows;
}

std::map<meas::Group, double> groups_within_user(
    const meas::ProfileSnapshot& snap, const meas::TaskProfileData& task,
    meas::EventId user_ev) {
  std::map<meas::Group, double> out;
  for (const auto& br : task.bridge) {
    if (br.user_event != user_ev) continue;
    out[snap.event_group(br.kernel_event)] += to_sec(br.excl, snap.cpu_freq);
  }
  return out;
}

std::vector<MergedRow> merged_profile(const meas::ProfileSnapshot& snap,
                                      const meas::TaskProfileData& task,
                                      const tau::Profiler& tau_prof) {
  std::vector<MergedRow> rows;

  // Kernel exclusive seconds inside each user routine, from the bridge.
  const std::unordered_map<meas::EventId, double> kernel_inside =
      meas::fold_kernel_within(
          task, [&](sim::Cycles c) { return to_sec(c, snap.cpu_freq); });

  for (tau::FuncId f = 0; f < tau_prof.func_count(); ++f) {
    const tau::FuncMetrics& m = tau_prof.metrics(f);
    if (m.count == 0) continue;
    MergedRow row;
    row.name = tau_prof.name(f);
    row.is_kernel = false;
    row.count = m.count;
    row.raw_excl_sec = to_sec(m.excl, snap.cpu_freq);
    const auto it = kernel_inside.find(tau_prof.ktau_event(f));
    const double inside = it == kernel_inside.end() ? 0.0 : it->second;
    row.true_excl_sec = std::max(0.0, row.raw_excl_sec - inside);
    rows.push_back(std::move(row));
  }

  for (const auto& ev : task.events) {
    if (ev.count == 0) continue;
    MergedRow row;
    row.name = std::string(snap.event_name(ev.id));
    row.is_kernel = true;
    row.count = ev.count;
    row.raw_excl_sec = to_sec(ev.excl, snap.cpu_freq);
    row.true_excl_sec = row.raw_excl_sec;
    rows.push_back(std::move(row));
  }

  std::sort(rows.begin(), rows.end(),
            [](const MergedRow& a, const MergedRow& b) {
              return a.true_excl_sec > b.true_excl_sec;
            });
  return rows;
}

namespace {

void expand_callgraph(const meas::ProfileSnapshot& snap,
                      const std::unordered_map<
                          meas::EventId, std::vector<const meas::EdgeEntry*>>&
                          children,
                      meas::EventId node, int depth, int max_depth,
                      std::vector<CallGraphNode>& out) {
  if (depth > max_depth) return;
  const auto it = children.find(node);
  if (it == children.end()) return;
  std::vector<const meas::EdgeEntry*> sorted = it->second;
  std::sort(sorted.begin(), sorted.end(),
            [](const meas::EdgeEntry* a, const meas::EdgeEntry* b) {
              return a->incl > b->incl;
            });
  for (const meas::EdgeEntry* e : sorted) {
    CallGraphNode row;
    row.name = std::string(snap.event_name(e->child));
    row.depth = depth;
    row.count = e->count;
    row.incl_sec = to_sec(e->incl, snap.cpu_freq);
    row.excl_sec = to_sec(e->excl, snap.cpu_freq);
    out.push_back(std::move(row));
    if (e->child != node) {
      expand_callgraph(snap, children, e->child, depth + 1, max_depth, out);
    }
  }
}

}  // namespace

std::vector<CallGraphNode> callgraph(const meas::ProfileSnapshot& snap,
                                     const meas::TaskProfileData& task,
                                     int max_depth) {
  std::unordered_map<meas::EventId, std::vector<const meas::EdgeEntry*>>
      children;
  for (const auto& e : task.edges) children[e.parent].push_back(&e);
  std::vector<CallGraphNode> out;
  expand_callgraph(snap, children, meas::kCallpathRoot, 0, max_depth, out);
  return out;
}

const meas::TaskProfileData& task_of(const meas::ProfileSnapshot& snap,
                                     meas::Pid pid) {
  for (const auto& task : snap.tasks) {
    if (task.pid == pid) return task;
  }
  throw std::out_of_range("task_of: pid not in snapshot");
}

NamedMetrics named_metrics(const meas::ProfileSnapshot& snap,
                           const meas::TaskProfileData& task,
                           std::string_view event_name) {
  NamedMetrics out;
  for (const auto& ev : task.events) {
    if (snap.event_name(ev.id) != event_name) continue;
    out.count += ev.count;
    out.incl_sec += to_sec(ev.incl, snap.cpu_freq);
    out.excl_sec += to_sec(ev.excl, snap.cpu_freq);
  }
  return out;
}

std::vector<EventRow> interference_events(const meas::ProfileSnapshot& snap) {
  constexpr std::string_view kFaultEvents[] = {
      sim::kStormIrqEvent, sim::kStealEvent, sim::kTcpRetxEvent};
  std::vector<EventRow> rows;
  for (const std::string_view name : kFaultEvents) {
    EventRow row;
    row.name = std::string(name);
    for (const auto& task : snap.tasks) {
      const NamedMetrics m = named_metrics(snap, task, name);
      row.count += m.count;
      row.incl_sec += m.incl_sec;
      row.excl_sec += m.excl_sec;
    }
    if (row.count == 0) continue;  // event not registered / never fired
    for (const auto& e : snap.events) {
      if (e.name == name) {
        row.group = e.group;
        break;
      }
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const EventRow& a, const EventRow& b) {
    return a.incl_sec > b.incl_sec;
  });
  return rows;
}

double interference_seconds(const meas::ProfileSnapshot& snap) {
  double total = 0.0;
  for (const EventRow& row : interference_events(snap)) total += row.incl_sec;
  return total;
}

}  // namespace ktau::analysis
