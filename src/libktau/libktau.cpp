#include "libktau/libktau.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ktau::user {

std::vector<std::byte> KtauHandle::read_profile_frame(
    meas::Scope scope, std::span<const meas::Pid> pids,
    meas::ProfileCursor cursor) {
  // The kernel interface is session-less: first ask for the size, then
  // read.  The read can fail if the data grew in between (new processes,
  // new events); re-query and retry.  The cursor does not change across
  // retries (only a successful read advances the kernel's epoch).
  std::size_t capacity = proc_.profile_size(scope, pids, cursor);
  std::vector<std::byte> buf;
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (proc_.profile_read(scope, pids, cursor, capacity, buf)) {
      last_profile_wire_bytes_ = buf.size();
      return buf;
    }
    capacity = proc_.profile_size(scope, pids, cursor);
  }
  throw std::runtime_error(
      "libKtau: profile size kept changing; giving up after bounded retries");
}

meas::ProfileSnapshot KtauHandle::get_profile(meas::Scope scope,
                                              std::span<const meas::Pid> pids) {
  return meas::decode_profile(
      read_profile_frame(scope, pids, meas::ProfileCursor{}));
}

const meas::ProfileSnapshot& KtauHandle::get_profile_delta(
    meas::Scope scope, std::span<const meas::Pid> pids) {
  const meas::ProfileSnapshot frame =
      meas::decode_profile(read_profile_frame(scope, pids, cache_.cursor()));
  last_profile_row_bytes_ = 0;
  for (const auto& t : frame.tasks) {
    last_profile_row_bytes_ += t.events.size() * 28 + t.bridge.size() * 32;
  }
  cache_.apply(frame);
  return cache_.merged();
}

meas::TraceSnapshot KtauHandle::get_trace_incremental(
    meas::Scope scope, std::span<const meas::Pid> pids) {
  // Single-call protocol: the kernel serializes whatever the rings hold
  // past the presented cursor; there is no size/retry dance because the
  // read allocates its own buffer.
  const std::vector<std::byte> bytes =
      proc_.trace_read(scope, pids, trace_cursor_);
  last_trace_wire_bytes_ = bytes.size();
  meas::TraceSnapshot frame = meas::decode_trace(bytes);
  trace_cursor_.advance(frame);
  return frame;
}

// ---------------------------------------------------------------------------
// ASCII codec
// ---------------------------------------------------------------------------

std::string profile_to_ascii(const meas::ProfileSnapshot& snap) {
  std::ostringstream os;
  os << "#KTAU-PROFILE v1\n";
  os << "timestamp " << snap.timestamp << "\n";
  os << "freq " << snap.cpu_freq << "\n";
  os << "events " << snap.events.size() << "\n";
  for (const auto& e : snap.events) {
    os << "e " << e.id << " " << meas::mask_of(e.group) << " " << e.name
       << "\n";
  }
  os << "tasks " << snap.tasks.size() << "\n";
  for (const auto& t : snap.tasks) {
    os << "task " << t.pid << " " << t.events.size() << " "
       << t.atomics.size() << " " << t.bridge.size() << " " << t.edges.size()
       << " " << t.name << "\n";
    for (const auto& ev : t.events) {
      os << "ev " << ev.id << " " << ev.count << " " << ev.incl << " "
         << ev.excl << "\n";
    }
    for (const auto& at : t.atomics) {
      // Hex float preserves doubles exactly across the round trip.
      char buf[128];
      std::snprintf(buf, sizeof buf, "at %u %" PRIu64 " %a %a %a", at.id,
                    at.count, at.sum, at.min, at.max);
      os << buf << "\n";
    }
    for (const auto& br : t.bridge) {
      os << "br " << br.user_event << " " << br.kernel_event << " "
         << br.count << " " << br.incl << " " << br.excl << "\n";
    }
    for (const auto& e : t.edges) {
      os << "cp " << e.parent << " " << e.child << " " << e.count << " "
         << e.incl << " " << e.excl << "\n";
    }
  }
  os << "end\n";
  return os.str();
}

namespace {

std::runtime_error parse_error(const std::string& where) {
  return std::runtime_error("libKtau ASCII parse error: " + where);
}

}  // namespace

meas::ProfileSnapshot profile_from_ascii(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  auto next_line = [&](const char* what) {
    if (!std::getline(is, line)) throw parse_error(what);
    return std::istringstream(line);
  };

  if (!std::getline(is, line) || line != "#KTAU-PROFILE v1") {
    throw parse_error("header");
  }
  meas::ProfileSnapshot snap;
  std::string tag;

  {
    auto ls = next_line("timestamp");
    if (!(ls >> tag >> snap.timestamp) || tag != "timestamp") {
      throw parse_error("timestamp");
    }
  }
  {
    auto ls = next_line("freq");
    if (!(ls >> tag >> snap.cpu_freq) || tag != "freq") {
      throw parse_error("freq");
    }
  }
  std::size_t nevents = 0;
  {
    auto ls = next_line("events");
    if (!(ls >> tag >> nevents) || tag != "events") throw parse_error("events");
  }
  for (std::size_t i = 0; i < nevents; ++i) {
    auto ls = next_line("event row");
    meas::EventDesc d;
    meas::GroupMask g = 0;
    if (!(ls >> tag >> d.id >> g) || tag != "e") throw parse_error("event row");
    d.group = static_cast<meas::Group>(g);
    std::getline(ls, d.name);
    if (!d.name.empty() && d.name.front() == ' ') d.name.erase(0, 1);
    snap.events.push_back(std::move(d));
  }
  std::size_t ntasks = 0;
  {
    auto ls = next_line("tasks");
    if (!(ls >> tag >> ntasks) || tag != "tasks") throw parse_error("tasks");
  }
  for (std::size_t i = 0; i < ntasks; ++i) {
    auto ls = next_line("task row");
    meas::TaskProfileData t;
    std::size_t nev = 0, nat = 0, nbr = 0, ncp = 0;
    if (!(ls >> tag >> t.pid >> nev >> nat >> nbr >> ncp) || tag != "task") {
      throw parse_error("task row");
    }
    std::getline(ls, t.name);
    if (!t.name.empty() && t.name.front() == ' ') t.name.erase(0, 1);
    for (std::size_t j = 0; j < nev; ++j) {
      auto evs = next_line("ev row");
      meas::EventEntry e;
      if (!(evs >> tag >> e.id >> e.count >> e.incl >> e.excl) || tag != "ev") {
        throw parse_error("ev row");
      }
      t.events.push_back(e);
    }
    for (std::size_t j = 0; j < nat; ++j) {
      auto ats = next_line("at row");
      meas::AtomicEntry a;
      // The doubles are written as hex floats (%a) for exact round trips;
      // istream's operator>> cannot parse those, so go through strtod.
      std::string sum_s, min_s, max_s;
      if (!(ats >> tag >> a.id >> a.count >> sum_s >> min_s >> max_s) ||
          tag != "at") {
        throw parse_error("at row");
      }
      char* end = nullptr;
      a.sum = std::strtod(sum_s.c_str(), &end);
      if (end == sum_s.c_str()) throw parse_error("at row sum");
      a.min = std::strtod(min_s.c_str(), &end);
      if (end == min_s.c_str()) throw parse_error("at row min");
      a.max = std::strtod(max_s.c_str(), &end);
      if (end == max_s.c_str()) throw parse_error("at row max");
      t.atomics.push_back(a);
    }
    for (std::size_t j = 0; j < nbr; ++j) {
      auto brs = next_line("br row");
      meas::BridgeEntry b;
      if (!(brs >> tag >> b.user_event >> b.kernel_event >> b.count >>
            b.incl >> b.excl) ||
          tag != "br") {
        throw parse_error("br row");
      }
      t.bridge.push_back(b);
    }
    for (std::size_t j = 0; j < ncp; ++j) {
      auto cps = next_line("cp row");
      meas::EdgeEntry e;
      if (!(cps >> tag >> e.parent >> e.child >> e.count >> e.incl >>
            e.excl) ||
          tag != "cp") {
        throw parse_error("cp row");
      }
      t.edges.push_back(e);
    }
    snap.tasks.push_back(std::move(t));
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Formatted output
// ---------------------------------------------------------------------------

void print_profile(std::ostream& os, const meas::ProfileSnapshot& snap,
                   const PrintOptions& opts) {
  os << "KTAU profile @ " << snap.timestamp << " ns (cpu " << snap.cpu_freq
     << " Hz)\n";
  for (const auto& t : snap.tasks) {
    if (opts.skip_empty && t.events.empty() && t.atomics.empty()) continue;
    os << "  pid " << t.pid << " (" << t.name << ")\n";
    auto rows = t.events;
    std::sort(rows.begin(), rows.end(),
              [](const meas::EventEntry& a, const meas::EventEntry& b) {
                return a.incl > b.incl;
              });
    for (const auto& ev : rows) {
      if (opts.skip_empty && ev.count == 0) continue;
      const auto name = snap.event_name(ev.id);
      const double to_us =
          1e6 / static_cast<double>(snap.cpu_freq ? snap.cpu_freq : 1);
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "    %-20s calls %8" PRIu64 "  incl %14.1f us  excl "
                    "%14.1f us\n",
                    std::string(name).c_str(), ev.count,
                    static_cast<double>(ev.incl) * to_us,
                    static_cast<double>(ev.excl) * to_us);
      os << buf;
    }
    if (opts.show_atomic) {
      for (const auto& at : t.atomics) {
        const auto name = snap.event_name(at.id);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "    %-20s samples %6" PRIu64
                      "  sum %.0f  min %.0f  max %.0f\n",
                      std::string(name).c_str(), at.count, at.sum, at.min,
                      at.max);
        os << buf;
      }
    }
    if (opts.show_bridge) {
      for (const auto& br : t.bridge) {
        const double to_us =
            1e6 / static_cast<double>(snap.cpu_freq ? snap.cpu_freq : 1);
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "    [%s -> %s] calls %8" PRIu64 "  incl %12.1f us\n",
                      std::string(snap.event_name(br.user_event)).c_str(),
                      std::string(snap.event_name(br.kernel_event)).c_str(),
                      br.count, static_cast<double>(br.incl) * to_us);
        os << buf;
      }
    }
  }
}

}  // namespace ktau::user
