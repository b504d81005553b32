#include "ktau/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace ktau::meas {
namespace {

constexpr std::uint32_t kProfileMagic = 0x4B544155;  // "KTAU"
constexpr std::uint32_t kTraceMagic = 0x4B545243;    // "KTRC"
// Versions 1 and 2 (cursor-less frames) are no longer accepted; the
// numbering is kept so an old frame fails as an unsupported version.
constexpr std::uint32_t kVersionDelta = 3;  // v3: cursor-carrying profiles
constexpr std::uint32_t kVersionTraceCursor = 4;  // v4: cursor trace frames

class ByteWriter {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  void str(std::string_view s) {
    if (s.size() > 0xFFFF) throw std::length_error("snapshot string too long");
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  std::vector<std::byte> take() { return std::move(out_); }

 private:
  // resize + memcpy rather than a range insert: GCC 12 at -O3 cannot see
  // through the inlined insert and reports a bogus stringop-overflow.
  void raw(const void* p, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = out_.size();
    out_.resize(at + n);
    std::memcpy(out_.data() + at, p, n);
  }
  std::vector<std::byte> out_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::byte>& buf) : buf_(buf) {}

  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  double f64() { return read<double>(); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  /// Reads an element count and validates it against the bytes actually
  /// left in the buffer (each element occupies at least `min_elem_bytes`
  /// on the wire), so a corrupt count fails here — before the caller's
  /// reserve() — instead of triggering a multi-gigabyte allocation.
  std::uint32_t count(std::size_t min_elem_bytes) {
    const std::uint32_t n = u32();
    if (n > remaining() / min_elem_bytes) {
      throw SnapshotError("KTAU snapshot: element count exceeds data");
    }
    return n;
  }
  std::size_t remaining() const { return buf_.size() - pos_; }
  bool done() const { return pos_ == buf_.size(); }

 private:
  template <typename T>
  T read() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void need(std::size_t n) {
    if (n > remaining()) {
      throw SnapshotError("KTAU snapshot: truncated data");
    }
  }
  const std::vector<std::byte>& buf_;
  std::size_t pos_ = 0;
};

// Minimum wire sizes of the variable-count records, used to bound counts
// read from untrusted bytes.  A record with a string counts only its 4-byte
// length prefix (the string body may be empty).
constexpr std::size_t kMinEventDescBytes = 4 + 4 + 4;          // id+group+len
constexpr std::size_t kMinTaskBytes = 4 + 4 + 4 * 4;           // pid+len+counts
constexpr std::size_t kMinEventRowBytes = 4 + 8 + 8 + 8;
constexpr std::size_t kMinAtomicRowBytes = 4 + 8 + 8 + 8 + 8;
constexpr std::size_t kMinKeyedRowBytes = 8 + 8 + 8 + 8;       // bridge/edge
// pid + name len + base/next/first-lost seqs + dropped + record count.
constexpr std::size_t kMinTraceTaskBytes = 4 + 4 + 8 + 8 + 8 + 8 + 4;
constexpr std::size_t kMinTraceRecBytes = 8 + 4 + 1 + 8;

void encode_event_table(ByteWriter& w, const EventRegistry& registry,
                        EventId from = 0) {
  w.u32(static_cast<std::uint32_t>(registry.size() - from));
  for (EventId id = from; id < registry.size(); ++id) {
    const EventInfo& info = registry.info(id);
    w.u32(id);
    w.u32(mask_of(info.group));
    w.str(info.name);
  }
}

// Serializes one task's profile body, emitting only rows stamped at or
// after `min_epoch` (0 keeps every row: the full-snapshot path).  Ordering
// is the same either way.
void encode_task_body(ByteWriter& w, const TaskSnapshotInput& t,
                      std::uint64_t min_epoch) {
  w.u32(t.pid);
  w.str(t.name != nullptr ? *t.name : std::string_view{});
  const TaskProfile& prof = *t.profile;

  // Only emit rows with activity; ids are sparse per process.
  std::uint32_t live = 0;
  for (const auto& m : prof.all_metrics()) {
    if (m.count != 0 && m.epoch >= min_epoch) ++live;
  }
  w.u32(live);
  for (EventId id = 0; id < prof.all_metrics().size(); ++id) {
    const EventMetrics& m = prof.all_metrics()[id];
    if (m.count == 0 || m.epoch < min_epoch) continue;
    w.u32(id);
    w.u64(m.count);
    w.u64(m.incl);
    w.u64(m.excl);
  }

  std::uint32_t nat = 0;
  for (const auto& [id, am] : prof.atomics()) {
    if (am.epoch >= min_epoch) ++nat;
  }
  w.u32(nat);
  for (const auto& [id, am] : prof.atomics()) {
    if (am.epoch < min_epoch) continue;
    w.u32(id);
    w.u64(am.count);
    w.f64(am.sum);
    w.f64(am.min);
    w.f64(am.max);
  }

  std::uint32_t nbr = 0;
  for (const auto& [key, m] : prof.bridge()) {
    if (m.epoch >= min_epoch) ++nbr;
  }
  w.u32(nbr);
  for (const auto& [key, m] : prof.bridge()) {
    if (m.epoch < min_epoch) continue;
    w.u64(key);
    w.u64(m.count);
    w.u64(m.incl);
    w.u64(m.excl);
  }

  std::uint32_t ncp = 0;
  for (const auto& [key, m] : prof.edges()) {
    if (m.epoch >= min_epoch) ++ncp;
  }
  w.u32(ncp);
  for (const auto& [key, m] : prof.edges()) {
    if (m.epoch < min_epoch) continue;
    w.u64(key);
    w.u64(m.count);
    w.u64(m.incl);
    w.u64(m.excl);
  }
}

std::vector<EventDesc> decode_event_table(ByteReader& r) {
  const std::uint32_t n = r.count(kMinEventDescBytes);
  std::vector<EventDesc> events;
  events.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    EventDesc d;
    d.id = r.u32();
    d.group = static_cast<Group>(r.u32());
    d.name = r.str();
    events.push_back(std::move(d));
  }
  return events;
}

}  // namespace

std::string_view ProfileSnapshot::event_name(EventId id) const {
  for (const auto& e : events) {
    if (e.id == id) return e.name;
  }
  return {};
}

Group ProfileSnapshot::event_group(EventId id) const {
  for (const auto& e : events) {
    if (e.id == id) return e.group;
  }
  return Group::Sched;
}

std::string_view TraceSnapshot::event_name(EventId id) const {
  for (const auto& e : events) {
    if (e.id == id) return e.name;
  }
  return {};
}

std::vector<std::byte> encode_profile_delta(
    const EventRegistry& registry, sim::TimeNs timestamp, sim::FreqHz cpu_freq,
    const std::vector<TaskSnapshotInput>& tasks, ProfileCursor cursor,
    std::uint64_t next_epoch) {
  ByteWriter w;
  w.u32(kProfileMagic);
  w.u32(kVersionDelta);
  w.u64(timestamp);
  w.u64(cpu_freq);
  w.u64(cursor.epoch);
  w.u64(next_epoch);
  // Clamp defensively: a cursor from a different kernel could claim more
  // names than this registry holds.
  const auto name_base = static_cast<EventId>(
      std::min<std::size_t>(cursor.names, registry.size()));
  w.u32(name_base);
  encode_event_table(w, registry, name_base);
  std::uint32_t dirty = 0;
  for (const TaskSnapshotInput& t : tasks) {
    if (cursor.epoch == 0 || t.profile->dirty_epoch() >= cursor.epoch) ++dirty;
  }
  w.u32(dirty);
  for (const TaskSnapshotInput& t : tasks) {
    if (cursor.epoch != 0 && t.profile->dirty_epoch() < cursor.epoch) continue;
    encode_task_body(w, t, cursor.epoch);
  }
  return w.take();
}

ProfileSnapshot decode_profile(const std::vector<std::byte>& bytes) {
  ByteReader r(bytes);
  if (r.u32() != kProfileMagic) {
    throw SnapshotError("KTAU profile snapshot: bad magic");
  }
  if (r.u32() != kVersionDelta) {
    throw SnapshotError("KTAU profile snapshot: unsupported version");
  }
  ProfileSnapshot snap;
  snap.timestamp = r.u64();
  snap.cpu_freq = r.u64();
  snap.base_epoch = r.u64();
  snap.next_epoch = r.u64();
  snap.name_base = r.u32();
  snap.events = decode_event_table(r);
  const std::uint32_t ntasks = r.count(kMinTaskBytes);
  snap.tasks.reserve(ntasks);
  for (std::uint32_t i = 0; i < ntasks; ++i) {
    TaskProfileData t;
    t.pid = r.u32();
    t.name = r.str();
    const std::uint32_t nev = r.count(kMinEventRowBytes);
    t.events.reserve(nev);
    for (std::uint32_t j = 0; j < nev; ++j) {
      EventEntry e;
      e.id = r.u32();
      e.count = r.u64();
      e.incl = r.u64();
      e.excl = r.u64();
      t.events.push_back(e);
    }
    const std::uint32_t nat = r.count(kMinAtomicRowBytes);
    t.atomics.reserve(nat);
    for (std::uint32_t j = 0; j < nat; ++j) {
      AtomicEntry a;
      a.id = r.u32();
      a.count = r.u64();
      a.sum = r.f64();
      a.min = r.f64();
      a.max = r.f64();
      t.atomics.push_back(a);
    }
    const std::uint32_t nbr = r.count(kMinKeyedRowBytes);
    t.bridge.reserve(nbr);
    for (std::uint32_t j = 0; j < nbr; ++j) {
      BridgeEntry b;
      const std::uint64_t key = r.u64();
      b.user_event = static_cast<EventId>(key >> 32);
      b.kernel_event = static_cast<EventId>(key & 0xFFFFFFFFu);
      b.count = r.u64();
      b.incl = r.u64();
      b.excl = r.u64();
      t.bridge.push_back(b);
    }
    const std::uint32_t ncp = r.count(kMinKeyedRowBytes);
    t.edges.reserve(ncp);
    for (std::uint32_t j = 0; j < ncp; ++j) {
      EdgeEntry e;
      const std::uint64_t key = r.u64();
      e.parent = static_cast<EventId>(key >> 32);
      e.child = static_cast<EventId>(key & 0xFFFFFFFFu);
      e.count = r.u64();
      e.incl = r.u64();
      e.excl = r.u64();
      t.edges.push_back(e);
    }
    snap.tasks.push_back(std::move(t));
  }
  return snap;
}

namespace {

void encode_trace_records(ByteWriter& w, const std::vector<TraceRecord>& recs) {
  w.u32(static_cast<std::uint32_t>(recs.size()));
  for (const TraceRecord& rec : recs) {
    w.u64(rec.timestamp);
    w.u32(rec.event);
    w.u8(static_cast<std::uint8_t>(rec.type));
    w.u64(rec.value);
  }
}

void decode_trace_records(ByteReader& r, TaskTraceData& t) {
  const std::uint32_t nrec = r.count(kMinTraceRecBytes);
  t.records.reserve(nrec);
  for (std::uint32_t j = 0; j < nrec; ++j) {
    TraceRecord rec;
    rec.timestamp = r.u64();
    rec.event = r.u32();
    rec.type = static_cast<TraceType>(r.u8());
    rec.value = r.u64();
    t.records.push_back(rec);
  }
}

}  // namespace

std::vector<std::byte> encode_trace_incremental(
    const EventRegistry& registry, sim::TimeNs timestamp, sim::FreqHz cpu_freq,
    const std::vector<TaskTraceInput>& tasks, std::uint32_t name_base) {
  ByteWriter w;
  w.u32(kTraceMagic);
  w.u32(kVersionTraceCursor);
  w.u64(timestamp);
  w.u64(cpu_freq);
  // Clamp defensively: a cursor from a different kernel could claim more
  // names than this registry holds.
  const auto base = static_cast<EventId>(
      std::min<std::size_t>(name_base, registry.size()));
  w.u32(base);
  encode_event_table(w, registry, base);
  w.u32(static_cast<std::uint32_t>(tasks.size()));
  for (const TaskTraceInput& t : tasks) {
    w.u32(t.pid);
    w.str(t.name != nullptr ? *t.name : std::string_view{});
    w.u64(t.base_seq);
    w.u64(t.next_seq);
    w.u64(t.dropped);
    w.u64(t.first_lost_seq);
    encode_trace_records(w, *t.records);
  }
  return w.take();
}

TraceSnapshot decode_trace(const std::vector<std::byte>& bytes) {
  ByteReader r(bytes);
  if (r.u32() != kTraceMagic) {
    throw SnapshotError("KTAU trace snapshot: bad magic");
  }
  if (r.u32() != kVersionTraceCursor) {
    throw SnapshotError("KTAU trace snapshot: unsupported version");
  }
  TraceSnapshot snap;
  snap.timestamp = r.u64();
  snap.cpu_freq = r.u64();
  snap.name_base = r.u32();
  snap.events = decode_event_table(r);
  const std::uint32_t ntasks = r.count(kMinTraceTaskBytes);
  snap.tasks.reserve(ntasks);
  for (std::uint32_t i = 0; i < ntasks; ++i) {
    TaskTraceData t;
    t.pid = r.u32();
    t.name = r.str();
    t.base_seq = r.u64();
    t.next_seq = r.u64();
    t.dropped = r.u64();
    const std::uint64_t first_lost = r.u64();
    decode_trace_records(r, t);
    if (t.dropped > 0) {
      // The hole sits entirely before the first surviving record (ring
      // overwrite is strictly oldest-first); without survivors the frame
      // timestamp bounds it.
      t.gaps.push_back(TraceGap{
          t.records.empty() ? snap.timestamp : t.records.front().timestamp,
          t.dropped, first_lost});
    }
    snap.tasks.push_back(std::move(t));
  }
  return snap;
}

void TraceCursor::advance(const TraceSnapshot& frame) {
  for (const TaskTraceData& t : frame.tasks) {
    seqs[t.pid] = t.next_seq;
  }
  const std::uint32_t held =
      frame.name_base + static_cast<std::uint32_t>(frame.events.size());
  if (held > names) names = held;
}

void ProfileAccumulator::reset() {
  merged_ = ProfileSnapshot{};
  cursor_ = ProfileCursor{};
  task_index_.clear();
}

void ProfileAccumulator::apply(const ProfileSnapshot& snap) {
  if (snap.base_epoch == 0) {
    // Full state (zero-cursor frame): replace.
    merged_ = snap;
    merged_.name_base = 0;
    task_index_.clear();
    for (std::size_t i = 0; i < merged_.tasks.size(); ++i) {
      task_index_[merged_.tasks[i].pid] = i;
    }
  } else {
    merged_.timestamp = snap.timestamp;
    merged_.cpu_freq = snap.cpu_freq;
    // Name-table additions arrive densely (ids == positions); tolerate
    // re-sent prefixes from an over-conservative encoder.
    for (const EventDesc& d : snap.events) {
      if (d.id < merged_.events.size()) continue;
      merged_.events.push_back(d);
    }
    for (const TaskProfileData& t : snap.tasks) upsert_task(t);
  }
  cursor_.epoch = snap.next_epoch;
  cursor_.names = static_cast<std::uint32_t>(merged_.events.size());
}

void ProfileAccumulator::upsert_task(const TaskProfileData& incoming) {
  const auto [it, inserted] =
      task_index_.try_emplace(incoming.pid, merged_.tasks.size());
  if (inserted) {
    merged_.tasks.push_back(incoming);
    return;
  }
  TaskProfileData& t = merged_.tasks[it->second];
  t.name = incoming.name;
  // Delta rows carry full cumulative values; replace in place or append.
  // Row sets per task are small (tens), so linear matching beats the
  // bookkeeping of per-task hash indexes.
  for (const EventEntry& e : incoming.events) {
    const auto pos = std::find_if(t.events.begin(), t.events.end(),
                                  [&](const EventEntry& x) { return x.id == e.id; });
    if (pos != t.events.end()) {
      *pos = e;
    } else {
      t.events.push_back(e);
    }
  }
  for (const AtomicEntry& a : incoming.atomics) {
    const auto pos = std::find_if(t.atomics.begin(), t.atomics.end(),
                                  [&](const AtomicEntry& x) { return x.id == a.id; });
    if (pos != t.atomics.end()) {
      *pos = a;
    } else {
      t.atomics.push_back(a);
    }
  }
  for (const BridgeEntry& b : incoming.bridge) {
    const auto pos = std::find_if(t.bridge.begin(), t.bridge.end(),
                                  [&](const BridgeEntry& x) {
                                    return x.user_event == b.user_event &&
                                           x.kernel_event == b.kernel_event;
                                  });
    if (pos != t.bridge.end()) {
      *pos = b;
    } else {
      t.bridge.push_back(b);
    }
  }
  for (const EdgeEntry& e : incoming.edges) {
    const auto pos = std::find_if(t.edges.begin(), t.edges.end(),
                                  [&](const EdgeEntry& x) {
                                    return x.parent == e.parent &&
                                           x.child == e.child;
                                  });
    if (pos != t.edges.end()) {
      *pos = e;
    } else {
      t.edges.push_back(e);
    }
  }
}

}  // namespace ktau::meas
