#include "analysis/traceexport.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "analysis/merge.hpp"

namespace ktau::analysis {

namespace {

struct RawEvent {
  sim::TimeNs ts = 0;
  std::uint32_t stream = 0;
  bool is_kernel = false;
  KtlEvent::Kind kind = KtlEvent::Kind::Enter;
  std::string name;
  double value = 0;
  std::uint64_t dropped = 0;
  std::uint64_t first_seq = 0;
};

}  // namespace

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

void export_ktl(std::ostream& os, sim::FreqHz freq,
                const std::vector<TraceStream>& streams) {
  os << "#KTL v1\n";
  os << "#freq " << freq << "\n";
  std::vector<RawEvent> events;
  std::uint32_t stream_id = 0;
  for (const TraceStream& s : streams) {
    os << "#stream " << stream_id << " " << s.name << "\n";
    if (s.ktrace != nullptr) {
      const NameIndex names(s.ktrace->events);
      for (const auto& task : s.ktrace->tasks) {
        if (task.pid != s.pid) continue;
        for (const auto& rec : task.records) {
          RawEvent e;
          e.ts = rec.timestamp;
          e.stream = stream_id;
          e.is_kernel = true;
          e.name = std::string(names.name(rec.event));
          switch (rec.type) {
            case meas::TraceType::Entry:
              e.kind = KtlEvent::Kind::Enter;
              break;
            case meas::TraceType::Exit:
              e.kind = KtlEvent::Kind::Leave;
              break;
            case meas::TraceType::Atomic:
              e.kind = KtlEvent::Kind::Value;
              e.value = static_cast<double>(rec.value);
              break;
          }
          events.push_back(std::move(e));
        }
        for (const auto& gap : task.gaps) {
          RawEvent e;
          e.ts = gap.before;
          e.stream = stream_id;
          e.is_kernel = true;
          e.kind = KtlEvent::Kind::Gap;
          e.dropped = gap.dropped;
          e.first_seq = gap.first_seq;
          events.push_back(std::move(e));
        }
      }
    }
    if (s.tau != nullptr) {
      for (const auto& rec : s.tau->trace()) {
        RawEvent e;
        e.ts = rec.timestamp;
        e.stream = stream_id;
        e.is_kernel = false;
        e.kind = rec.is_enter ? KtlEvent::Kind::Enter : KtlEvent::Kind::Leave;
        e.name = s.tau->name(rec.func);
        events.push_back(std::move(e));
      }
    }
    ++stream_id;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const RawEvent& a, const RawEvent& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     // A gap's stamp is its upper bound — the lost records
                     // all happened at or before it — so it sorts ahead of
                     // same-stamp events.
                     const bool ag = a.kind == KtlEvent::Kind::Gap;
                     const bool bg = b.kind == KtlEvent::Kind::Gap;
                     if (ag != bg) return ag;
                     // leaves before enters at identical stamps keeps
                     // nesting well-formed for single-pass viewers.
                     return a.kind == KtlEvent::Kind::Leave &&
                            b.kind == KtlEvent::Kind::Enter;
                   });
  for (const auto& e : events) {
    switch (e.kind) {
      case KtlEvent::Kind::Enter:
        os << "E\t" << e.ts << "\t" << e.stream << "\t"
           << (e.is_kernel ? 'K' : 'U') << "\t" << e.name << "\n";
        break;
      case KtlEvent::Kind::Leave:
        os << "L\t" << e.ts << "\t" << e.stream << "\t"
           << (e.is_kernel ? 'K' : 'U') << "\t" << e.name << "\n";
        break;
      case KtlEvent::Kind::Value:
        os << "V\t" << e.ts << "\t" << e.stream << "\t" << e.name << "\t"
           << e.value << "\n";
        break;
      case KtlEvent::Kind::Gap:
        os << "G\t" << e.ts << "\t" << e.stream << "\t" << e.dropped << "\t"
           << e.first_seq << "\n";
        break;
    }
  }
}

KtlFile read_ktl(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  KtlFile out;
  if (!std::getline(is, line) || line != "#KTL v1") {
    throw std::runtime_error("KTL: bad header");
  }
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    if (line[0] == '#') {
      std::string tag;
      ls >> tag;
      if (tag == "#freq") {
        if (!(ls >> out.freq)) throw std::runtime_error("KTL: bad #freq");
      } else if (tag == "#stream") {
        std::uint32_t id = 0;
        std::string name;
        if (!(ls >> id)) throw std::runtime_error("KTL: bad #stream");
        std::getline(ls, name);
        if (!name.empty() && name.front() == ' ') name.erase(0, 1);
        out.streams.emplace_back(id, std::move(name));
      }
      continue;
    }
    KtlEvent e;
    std::string kind;
    ls >> kind;
    if (kind == "E" || kind == "L") {
      std::string side;
      if (!(ls >> e.timestamp >> e.stream >> side >> e.name)) {
        throw std::runtime_error("KTL: bad event row: " + line);
      }
      e.is_kernel = side == "K";
      e.kind = kind == "E" ? KtlEvent::Kind::Enter : KtlEvent::Kind::Leave;
    } else if (kind == "V") {
      if (!(ls >> e.timestamp >> e.stream >> e.name >> e.value)) {
        throw std::runtime_error("KTL: bad value row: " + line);
      }
      e.kind = KtlEvent::Kind::Value;
    } else if (kind == "G") {
      if (!(ls >> e.timestamp >> e.stream >> e.dropped >> e.first_seq)) {
        throw std::runtime_error("KTL: bad gap row: " + line);
      }
      e.is_kernel = true;
      e.kind = KtlEvent::Kind::Gap;
    } else {
      throw std::runtime_error("KTL: unknown record kind: " + line);
    }
    out.events.push_back(std::move(e));
  }
  return out;
}

}  // namespace ktau::analysis
