#include "analysis/matrixdoc.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "analysis/quantile.hpp"
#include "analysis/report.hpp"

namespace ktau::analysis {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void write_matrix_doc(std::ostream& os, const MatrixDoc& doc) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "ktau-matrix-v1");
  w.kv("trials_per_scenario", doc.trials_per_scenario);
  if (doc.shard.has_value()) {
    w.key("shard").begin_object();
    w.kv("index", doc.shard->index);
    w.kv("count", doc.shard->count);
    w.kv("units_total", doc.shard->units_total);
    w.end_object();
  }
  w.key("scenarios").begin_array();
  for (const ScenarioEntry& sc : doc.scenarios) {
    w.begin_object();
    w.kv("name", sc.name);
    w.kv("title", sc.title);
    w.kv("scale", sc.scale);
    w.key("repeats").begin_array();
    for (const RepeatEntry& rep : sc.repeats) {
      w.begin_object();
      w.kv("repeat", rep.repeat);
      w.kv("salt", rep.salt);
      w.key("trials").begin_array();
      for (const TrialEntry& tr : rep.trials) {
        w.begin_object();
        w.kv("name", tr.name);
        if (tr.failed) {
          w.kv("error", tr.error);
        } else {
          w.key("metrics").begin_object();
          for (const auto& [k, v] : tr.metrics) w.kv(k, v);
          w.end_object();
        }
        w.end_object();
      }
      w.end_array();
      w.key("gates").begin_array();
      for (const GateEntry& g : rep.gates) {
        w.begin_object();
        w.kv("name", g.name);
        w.kv("pass", g.pass);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.kv("failures", doc.failures);
  w.end_object();
  os << "\n";
}

std::string matrix_doc_to_string(const MatrixDoc& doc) {
  std::ostringstream os;
  write_matrix_doc(os, doc);
  return os.str();
}

bool write_matrix_doc_file(const std::string& path, const MatrixDoc& doc) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  write_matrix_doc(f, doc);
  f.close();  // flushes; a failed flush sets failbit
  return !f.fail();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

namespace {

/// Recursive-descent reader for exactly the writer's output (plus free-form
/// inter-token whitespace).  Fixed schema, fixed key order, fixed-depth
/// recursion; strings and arrays grow incrementally and are bounded by the
/// input size, never by an embedded count.
class DocParser {
 public:
  explicit DocParser(std::string_view s) : s_(s) {}

  MatrixDoc parse() {
    MatrixDoc doc;
    expect('{');
    expect_key("schema");
    const std::string schema = parse_string();
    if (schema != "ktau-matrix-v1") {
      fail("unsupported schema tag '" + schema + "'");
    }
    expect(',');
    expect_key("trials_per_scenario");
    doc.trials_per_scenario = parse_int(1, 1'000'000, "trials_per_scenario");
    expect(',');
    if (peek_key("shard")) {
      expect_key("shard");
      doc.shard = parse_shard();
      expect(',');
    }
    expect_key("scenarios");
    expect('[');
    if (!try_consume(']')) {
      do {
        doc.scenarios.push_back(parse_scenario());
      } while (try_consume(','));
      expect(']');
    }
    expect(',');
    expect_key("failures");
    doc.failures = parse_int(0, 1'000'000'000, "failures");
    expect('}');
    ws();
    if (pos_ != s_.size()) fail("trailing bytes after document");
    return doc;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw MatrixDocError(MatrixDocError::Kind::Parse,
                         "matrixdoc: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
            s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  void expect(char c) {
    ws();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool try_consume(char c) {
    ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// True when the next token is the string `key` (does not consume).
  bool peek_key(std::string_view key) {
    ws();
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    const std::size_t save = pos_;
    bool match = false;
    try {
      match = parse_string() == key;
    } catch (const MatrixDocError&) {
      pos_ = save;
      return false;
    }
    pos_ = save;
    return match;
  }

  void expect_key(std::string_view key) {
    ws();
    const std::size_t at = pos_;
    const std::string got = parse_string();
    if (got != key) {
      pos_ = at;
      fail("expected key \"" + std::string(key) + "\", got \"" + got + "\"");
    }
    expect(':');
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // The writer only escapes control characters this way; anything
          // above ASCII would not round-trip through json_escape, so the
          // strict subset rejects it.
          if (code >= 0x80) fail("\\u escape outside the emitted subset");
          out += static_cast<char>(code);
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  /// One numeric token ([-+0-9.eE]); `allow_null` maps `null` to NaN
  /// (write_json_double's encoding of non-finite values).
  double parse_double(bool allow_null) {
    ws();
    if (allow_null && s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return std::nan("");
    }
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    const std::string tok(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail("malformed number");
    if (!std::isfinite(v)) fail("number out of double range");
    return v;
  }

  int parse_int(long lo, long hi, const char* what) {
    ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail(std::string("expected an integer for ") + what);
    const std::string tok(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (end != tok.c_str() + tok.size() || v < lo || v > hi) {
      fail(std::string(what) + " out of range");
    }
    return static_cast<int>(v);
  }

  std::uint64_t parse_u64(const char* what) {
    ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
    if (pos_ == start) fail(std::string("expected an unsigned for ") + what);
    const std::string tok(s_.substr(start, pos_ - start));
    if (tok.size() > 20) fail(std::string(what) + " out of range");
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (end != tok.c_str() + tok.size() || errno == ERANGE) {
      fail(std::string(what) + " out of range");
    }
    return static_cast<std::uint64_t>(v);
  }

  bool parse_bool() {
    ws();
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    fail("expected true or false");
  }

  ShardStamp parse_shard() {
    ShardStamp st;
    expect('{');
    expect_key("index");
    st.index = parse_int(0, 1'000'000, "shard.index");
    expect(',');
    expect_key("count");
    st.count = parse_int(1, 1'000'000, "shard.count");
    expect(',');
    expect_key("units_total");
    st.units_total = parse_u64("shard.units_total");
    expect('}');
    if (st.index >= st.count) fail("shard.index must be < shard.count");
    return st;
  }

  ScenarioEntry parse_scenario() {
    ScenarioEntry sc;
    expect('{');
    expect_key("name");
    sc.name = parse_string();
    expect(',');
    expect_key("title");
    sc.title = parse_string();
    expect(',');
    expect_key("scale");
    sc.scale = parse_double(/*allow_null=*/true);
    expect(',');
    expect_key("repeats");
    expect('[');
    if (!try_consume(']')) {
      do {
        sc.repeats.push_back(parse_repeat());
      } while (try_consume(','));
      expect(']');
    }
    expect('}');
    return sc;
  }

  RepeatEntry parse_repeat() {
    RepeatEntry rep;
    expect('{');
    expect_key("repeat");
    rep.repeat = parse_int(0, 1'000'000, "repeat");
    expect(',');
    expect_key("salt");
    rep.salt = parse_u64("salt");
    expect(',');
    expect_key("trials");
    expect('[');
    if (!try_consume(']')) {
      do {
        rep.trials.push_back(parse_trial());
      } while (try_consume(','));
      expect(']');
    }
    expect(',');
    expect_key("gates");
    expect('[');
    if (!try_consume(']')) {
      do {
        GateEntry g;
        expect('{');
        expect_key("name");
        g.name = parse_string();
        expect(',');
        expect_key("pass");
        g.pass = parse_bool();
        expect('}');
        rep.gates.push_back(std::move(g));
      } while (try_consume(','));
      expect(']');
    }
    expect('}');
    return rep;
  }

  TrialEntry parse_trial() {
    TrialEntry tr;
    expect('{');
    expect_key("name");
    tr.name = parse_string();
    expect(',');
    if (peek_key("error")) {
      expect_key("error");
      tr.failed = true;
      tr.error = parse_string();
    } else {
      expect_key("metrics");
      expect('{');
      if (!try_consume('}')) {
        do {
          ws();
          std::string k = parse_string();
          expect(':');
          const double v = parse_double(/*allow_null=*/true);
          tr.metrics.emplace_back(std::move(k), v);
        } while (try_consume(','));
        expect('}');
      }
    }
    expect('}');
    return tr;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

MatrixDoc parse_matrix_doc(std::string_view text) {
  return DocParser(text).parse();
}

// ---------------------------------------------------------------------------
// merge
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void merge_fail(MatrixDocError::Kind kind, const std::string& m) {
  throw MatrixDocError(kind, "matrixctl merge: " + m);
}

/// One (scenario, repeat) unit flattened out of a shard document, keeping
/// the scenario header it must regroup under.
struct FlatUnit {
  const ScenarioEntry* scenario = nullptr;
  const RepeatEntry* repeat = nullptr;
};

}  // namespace

MatrixDoc merge_matrix_docs(const std::vector<MatrixDoc>& shards) {
  using Kind = MatrixDocError::Kind;
  if (shards.empty()) merge_fail(Kind::Missing, "no shard documents given");

  // Stamps must form one complete partition.
  const MatrixDoc* first = &shards.front();
  if (!first->shard.has_value()) {
    merge_fail(Kind::Shard, "document 0 carries no shard stamp");
  }
  const int count = first->shard->count;
  const std::uint64_t total = first->shard->units_total;
  if (static_cast<int>(shards.size()) != count) {
    merge_fail(Kind::Missing,
               "stamp says " + std::to_string(count) + " shard(s), got " +
                   std::to_string(shards.size()) + " document(s)");
  }
  std::vector<const MatrixDoc*> by_index(static_cast<std::size_t>(count),
                                         nullptr);
  for (std::size_t d = 0; d < shards.size(); ++d) {
    const MatrixDoc& doc = shards[d];
    if (!doc.shard.has_value()) {
      merge_fail(Kind::Shard,
                 "document " + std::to_string(d) + " carries no shard stamp");
    }
    const ShardStamp& st = *doc.shard;
    if (st.count != count || st.units_total != total) {
      merge_fail(Kind::Shard, "document " + std::to_string(d) +
                                  " stamped " + std::to_string(st.index) +
                                  "/" + std::to_string(st.count) +
                                  " disagrees with 0's " +
                                  std::to_string(count) + "-way partition");
    }
    if (doc.trials_per_scenario != first->trials_per_scenario) {
      merge_fail(Kind::Schema,
                 "trials_per_scenario differs across shard documents");
    }
    if (by_index[static_cast<std::size_t>(st.index)] != nullptr) {
      merge_fail(Kind::Overlap,
                 "two documents stamped shard " + std::to_string(st.index));
    }
    by_index[static_cast<std::size_t>(st.index)] = &doc;
  }

  // Flatten each shard into its unit queue (document order == ascending
  // canonical ordinal within the shard) and check the per-shard unit count
  // the round-robin partition dictates: shard i holds ordinals i, i+N, …
  std::vector<std::vector<FlatUnit>> queues(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const MatrixDoc& doc = *by_index[static_cast<std::size_t>(i)];
    auto& q = queues[static_cast<std::size_t>(i)];
    for (const ScenarioEntry& sc : doc.scenarios) {
      for (const RepeatEntry& rep : sc.repeats) q.push_back({&sc, &rep});
    }
    const std::uint64_t expect =
        total / static_cast<std::uint64_t>(count) +
        (static_cast<std::uint64_t>(i) < total % static_cast<std::uint64_t>(count)
             ? 1
             : 0);
    if (q.size() > expect) {
      merge_fail(Kind::Overlap, "shard " + std::to_string(i) + " holds " +
                                    std::to_string(q.size()) +
                                    " unit(s), partition allows " +
                                    std::to_string(expect));
    }
    if (q.size() < expect) {
      merge_fail(Kind::Missing, "shard " + std::to_string(i) + " holds " +
                                    std::to_string(q.size()) +
                                    " unit(s), partition requires " +
                                    std::to_string(expect));
    }
  }

  // Interleave back: ordinal j came from shard j mod N.
  std::vector<std::size_t> cursor(static_cast<std::size_t>(count), 0);
  std::set<std::pair<std::string, int>> seen;
  MatrixDoc out;
  out.trials_per_scenario = first->trials_per_scenario;
  std::set<std::string> closed;  // scenario groups already ended
  for (std::uint64_t j = 0; j < total; ++j) {
    const auto shard = static_cast<std::size_t>(
        j % static_cast<std::uint64_t>(count));
    const FlatUnit& u = queues[shard][cursor[shard]++];
    if (!seen.emplace(u.scenario->name, u.repeat->repeat).second) {
      merge_fail(Kind::Overlap, "unit (" + u.scenario->name + ", repeat " +
                                    std::to_string(u.repeat->repeat) +
                                    ") appears twice");
    }
    if (out.scenarios.empty() || out.scenarios.back().name != u.scenario->name) {
      if (!closed.insert(u.scenario->name).second) {
        merge_fail(Kind::Schema, "scenario '" + u.scenario->name +
                                     "' is split non-contiguously across "
                                     "the reconstructed order");
      }
      ScenarioEntry sc;
      sc.name = u.scenario->name;
      sc.title = u.scenario->title;
      sc.scale = u.scenario->scale;
      out.scenarios.push_back(std::move(sc));
    } else {
      const ScenarioEntry& cur = out.scenarios.back();
      const bool same_scale =
          cur.scale == u.scenario->scale ||
          (std::isnan(cur.scale) && std::isnan(u.scenario->scale));
      if (cur.title != u.scenario->title || !same_scale) {
        merge_fail(Kind::Schema, "scenario '" + cur.name +
                                     "' has inconsistent title/scale "
                                     "across shards");
      }
    }
    out.scenarios.back().repeats.push_back(*u.repeat);
  }
  for (const MatrixDoc& doc : shards) out.failures += doc.failures;
  return out;
}

// ---------------------------------------------------------------------------
// validate
// ---------------------------------------------------------------------------

std::vector<MetricStats> doc_metric_stats(const MatrixDoc& doc) {
  std::vector<MetricStats> out;
  for (const ScenarioEntry& sc : doc.scenarios) {
    // (trial, metric) series in first-appearance order across repeats.
    std::vector<std::pair<std::string, std::string>> order;
    std::map<std::pair<std::string, std::string>, std::vector<double>> series;
    for (const RepeatEntry& rep : sc.repeats) {
      for (const TrialEntry& tr : rep.trials) {
        if (tr.failed) continue;
        for (const auto& [metric, v] : tr.metrics) {
          auto key = std::make_pair(tr.name, metric);
          auto [it, inserted] = series.emplace(key, std::vector<double>{});
          if (inserted) order.push_back(key);
          it->second.push_back(v);
        }
      }
    }
    for (const auto& key : order) {
      const std::vector<double>& vals = series.at(key);
      QuantileEstimator q;
      double sum = 0;
      for (const double v : vals) {
        q.add(v);
        sum += v;
      }
      MetricStats st;
      st.scenario = sc.name;
      st.trial = key.first;
      st.metric = key.second;
      st.n = static_cast<int>(vals.size());
      st.min = q.min();
      st.median = q.quantile(0.5);
      st.mean = sum / static_cast<double>(vals.size());
      st.ci_lo = q.quantile(0.025);
      st.ci_hi = q.quantile(0.975);
      out.push_back(std::move(st));
    }
  }
  return out;
}

std::vector<Budget> parse_budgets(std::string_view text) {
  std::vector<Budget> out;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? eol : eol - pos);
    ++line_no;
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    // Strip trailing CR and surrounding spaces.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (line.empty() || line.front() == '#') continue;

    std::vector<std::string> fields;
    std::size_t p = 0;
    while (true) {
      const std::size_t bar = line.find('|', p);
      fields.emplace_back(
          line.substr(p, bar == std::string_view::npos ? bar : bar - p));
      if (bar == std::string_view::npos) break;
      p = bar + 1;
    }
    if (fields.size() != 5) {
      throw MatrixDocError(
          MatrixDocError::Kind::Budget,
          "budgets line " + std::to_string(line_no) +
              ": expected scenario|trial|metric|lo|hi, got " +
              std::to_string(fields.size()) + " field(s)");
    }
    Budget b;
    b.scenario = fields[0];
    b.trial = fields[1];
    b.metric = fields[2];
    char* end = nullptr;
    b.lo = std::strtod(fields[3].c_str(), &end);
    const bool lo_ok = end == fields[3].c_str() + fields[3].size() &&
                       !fields[3].empty();
    b.hi = std::strtod(fields[4].c_str(), &end);
    const bool hi_ok = end == fields[4].c_str() + fields[4].size() &&
                       !fields[4].empty();
    if (!lo_ok || !hi_ok || !(b.lo <= b.hi)) {
      throw MatrixDocError(MatrixDocError::Kind::Budget,
                           "budgets line " + std::to_string(line_no) +
                               ": bad interval");
    }
    out.push_back(std::move(b));
  }
  return out;
}

int render_validation(std::ostream& os, const MatrixDoc& doc,
                      const std::vector<Budget>& budgets) {
  const std::vector<MetricStats> stats = doc_metric_stats(doc);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "ktau-matrix-v1: %zu scenario(s), trials_per_scenario %d, "
                "failures %d\n\n",
                doc.scenarios.size(), doc.trials_per_scenario, doc.failures);
  os << buf;
  std::snprintf(buf, sizeof(buf), "%-14s %-28s %-22s %3s %11s %11s %11s %11s %11s\n",
                "scenario", "trial", "metric", "n", "min", "median", "mean",
                "ci95.lo", "ci95.hi");
  os << buf;
  for (const MetricStats& st : stats) {
    std::snprintf(buf, sizeof(buf),
                  "%-14s %-28s %-22s %3d %11.6g %11.6g %11.6g %11.6g %11.6g\n",
                  st.scenario.c_str(), st.trial.c_str(), st.metric.c_str(),
                  st.n, st.min, st.median, st.mean, st.ci_lo, st.ci_hi);
    os << buf;
  }

  int violations = 0;
  if (!budgets.empty()) {
    os << "\nbudget assertions (median within [lo, hi]):\n";
    for (const Budget& b : budgets) {
      const MetricStats* found = nullptr;
      for (const MetricStats& st : stats) {
        if (st.scenario == b.scenario && st.trial == b.trial &&
            st.metric == b.metric) {
          found = &st;
          break;
        }
      }
      if (found == nullptr) {
        std::snprintf(buf, sizeof(buf),
                      "  %s/%s %s: series absent from document: FAIL\n",
                      b.scenario.c_str(), b.trial.c_str(), b.metric.c_str());
        os << buf;
        ++violations;
        continue;
      }
      const bool ok =
          found->median >= b.lo && found->median <= b.hi;  // NaN fails both
      std::snprintf(buf, sizeof(buf),
                    "  %s/%s %s: median %.6g in [%.6g, %.6g]: %s\n",
                    b.scenario.c_str(), b.trial.c_str(), b.metric.c_str(),
                    found->median, b.lo, b.hi, ok ? "PASS" : "FAIL");
      os << buf;
      if (!ok) ++violations;
    }
    std::snprintf(buf, sizeof(buf), "%zu budget(s), %d violation(s)\n",
                  budgets.size(), violations);
    os << buf;
  }
  return violations;
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

namespace {

/// Emits one reported line and counts it.
class DiffSink {
 public:
  explicit DiffSink(std::ostream& os) : os_(os) {}
  void line(const std::string& s) {
    os_ << "  " << s << "\n";
    ++count_;
  }
  int count() const { return count_; }

 private:
  std::ostream& os_;
  int count_ = 0;
};

std::string fmt_g(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void diff_repeat(DiffSink& sink, const std::string& where,
                 const RepeatEntry& a, const RepeatEntry& b,
                 double threshold) {
  // Trials by name (document order on the base side).
  for (const TrialEntry& ta : a.trials) {
    const TrialEntry* tb = nullptr;
    for (const TrialEntry& t : b.trials) {
      if (t.name == ta.name) {
        tb = &t;
        break;
      }
    }
    const std::string twhere = where + " " + ta.name;
    if (tb == nullptr) {
      sink.line(twhere + ": trial only in base document");
      continue;
    }
    if (ta.failed != tb->failed) {
      sink.line(twhere + ": " + (tb->failed ? "now fails: " + tb->error
                                            : "no longer fails"));
      continue;
    }
    if (ta.failed) continue;  // both failed: nothing numeric to compare
    for (const auto& [metric, va] : ta.metrics) {
      const double* vb = nullptr;
      for (const auto& [m, v] : tb->metrics) {
        if (m == metric) {
          vb = &v;
          break;
        }
      }
      if (vb == nullptr) {
        sink.line(twhere + " " + metric + ": metric only in base document");
        continue;
      }
      const bool a_nan = std::isnan(va);
      const bool b_nan = std::isnan(*vb);
      if (a_nan && b_nan) continue;
      if (a_nan != b_nan) {
        sink.line(twhere + " " + metric + ": " + fmt_g(va) + " -> " +
                  fmt_g(*vb) + " (NaN change)");
        continue;
      }
      if (va == *vb) continue;
      if (va == 0) {
        sink.line(twhere + " " + metric + ": 0 -> " + fmt_g(*vb));
        continue;
      }
      const double rel = std::fabs(*vb - va) / std::fabs(va);
      if (rel > threshold) {
        char pct[48];
        std::snprintf(pct, sizeof(pct), "%+.2f%%",
                      (*vb - va) / va * 100.0);
        sink.line(twhere + " " + metric + ": " + fmt_g(va) + " -> " +
                  fmt_g(*vb) + " (" + pct + ")");
      }
    }
    for (const auto& [metric, v] : tb->metrics) {
      bool in_a = false;
      for (const auto& [m, va] : ta.metrics) {
        if (m == metric) {
          in_a = true;
          break;
        }
      }
      (void)v;
      if (!in_a) {
        sink.line(twhere + " " + metric + ": metric only in next document");
      }
    }
  }
  for (const TrialEntry& tb : b.trials) {
    bool in_a = false;
    for (const TrialEntry& t : a.trials) {
      if (t.name == tb.name) {
        in_a = true;
        break;
      }
    }
    if (!in_a) sink.line(where + " " + tb.name + ": trial only in next document");
  }

  // Gate flips, and gates present on one side only (removed or renamed).
  auto find_gate = [](const std::vector<GateEntry>& gates,
                      const std::string& name) -> const GateEntry* {
    for (const GateEntry& g : gates) {
      if (g.name == name) return &g;
    }
    return nullptr;
  };
  for (const GateEntry& ga : a.gates) {
    const GateEntry* gb = find_gate(b.gates, ga.name);
    if (gb == nullptr) {
      sink.line(where + " gate \"" + ga.name + "\": only in base document");
    } else if (ga.pass != gb->pass) {
      sink.line(where + " gate \"" + ga.name + "\": " +
                (ga.pass ? "PASS" : "FAIL") + " -> " +
                (gb->pass ? "PASS" : "FAIL"));
    }
  }
  for (const GateEntry& gb : b.gates) {
    if (find_gate(a.gates, gb.name) == nullptr) {
      sink.line(where + " gate \"" + gb.name + "\": only in next document");
    }
  }
}

}  // namespace

int render_diff(std::ostream& os, const MatrixDoc& base, const MatrixDoc& next,
                double threshold) {
  // NaN compares false with every drift and would report nothing.
  if (!std::isfinite(threshold) || threshold < 0) {
    throw std::invalid_argument(
        "diff threshold must be a finite number >= 0");
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "matrix diff, relative threshold %.4g:\n", threshold);
  os << buf;
  DiffSink sink(os);
  for (const ScenarioEntry& sa : base.scenarios) {
    const ScenarioEntry* sb = nullptr;
    for (const ScenarioEntry& s : next.scenarios) {
      if (s.name == sa.name) {
        sb = &s;
        break;
      }
    }
    if (sb == nullptr) {
      sink.line(sa.name + ": scenario only in base document");
      continue;
    }
    for (const RepeatEntry& ra : sa.repeats) {
      const RepeatEntry* rb = nullptr;
      for (const RepeatEntry& r : sb->repeats) {
        if (r.repeat == ra.repeat) {
          rb = &r;
          break;
        }
      }
      const std::string where =
          sa.name + " r" + std::to_string(ra.repeat);
      if (rb == nullptr) {
        sink.line(where + ": repeat only in base document");
        continue;
      }
      diff_repeat(sink, where, ra, *rb, threshold);
    }
    for (const RepeatEntry& rb : sb->repeats) {
      bool in_a = false;
      for (const RepeatEntry& r : sa.repeats) {
        if (r.repeat == rb.repeat) {
          in_a = true;
          break;
        }
      }
      if (!in_a) {
        sink.line(sa.name + " r" + std::to_string(rb.repeat) +
                  ": repeat only in next document");
      }
    }
  }
  for (const ScenarioEntry& sb : next.scenarios) {
    bool in_a = false;
    for (const ScenarioEntry& s : base.scenarios) {
      if (s.name == sb.name) {
        in_a = true;
        break;
      }
    }
    if (!in_a) sink.line(sb.name + ": scenario only in next document");
  }
  std::snprintf(buf, sizeof(buf), "%d drift line(s) above threshold\n",
                sink.count());
  os << buf;
  return sink.count();
}

}  // namespace ktau::analysis
