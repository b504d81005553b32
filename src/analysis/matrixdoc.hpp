// ktau-matrix-v1 documents as data: a typed model of the JSON the run
// harness emits, a strict deterministic reader for exactly that subset, and
// the operations `matrixctl` builds on (DESIGN.md §15):
//
//   - merge:    combine N `--shard i/N` documents into the document the
//               equivalent unsharded run would have written, byte for byte.
//               That bit-identity is the product; overlapping or missing
//               shard units are rejected with typed errors.
//   - validate: per-metric repeat statistics (min / median / mean and a
//               nearest-rank 95% interval via analysis::QuantileEstimator)
//               rendered as a stable text table, plus budget assertions
//               loaded from a checked-in `BENCH_budgets` file.
//   - diff:     per-metric relative drift between two documents (the
//               consumer for successive weekly paper-scale artifacts).
//
// Encode and decode share one schema: the writer here is the only emitter
// (the harness's `--json` path calls `write_matrix_doc`), the reader
// enforces the writer's fixed key order, and doubles go through
// `write_json_double`'s shortest-round-trip formatting in both directions —
// so parse(write(doc)) is the identity and merged documents can never
// disagree with harness-written ones on formatting.
//
// Hardening posture matches the snapshot codec (DESIGN.md §7): the reader
// never allocates from an attacker-controlled count — containers grow
// incrementally and every string/array is bounded by the bytes actually
// present — so truncated or bit-flipped inputs fail with MatrixDocError,
// not over-allocation or OOB reads.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ktau::analysis {

/// Typed failure for every matrixdoc operation.
class MatrixDocError : public std::runtime_error {
 public:
  enum class Kind {
    Parse,    // malformed JSON / wrong schema subset
    Schema,   // well-formed but semantically inconsistent document(s)
    Shard,    // shard stamps disagree (count / units_total / duplicates)
    Overlap,  // the same (scenario, repeat) unit appears twice
    Missing,  // a shard or unit the partition requires is absent
    Budget,   // malformed BENCH_budgets input
  };
  MatrixDocError(Kind kind, std::string msg)
      : std::runtime_error(std::move(msg)), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

// ---------------------------------------------------------------------------
// Document model (mirrors the emitted JSON one to one)
// ---------------------------------------------------------------------------

struct TrialEntry {
  std::string name;
  /// A trial either failed (error string) or produced metrics; the JSON
  /// has exactly one of the two keys.
  bool failed = false;
  std::string error;
  /// Named metrics in emission order.  NaN round-trips as JSON null.
  std::vector<std::pair<std::string, double>> metrics;
};

struct GateEntry {
  std::string name;
  bool pass = false;
};

/// One (scenario, repeat) execution unit — the granularity `--shard i/N`
/// partitions at.
struct RepeatEntry {
  int repeat = 0;
  std::uint64_t salt = 0;
  std::vector<TrialEntry> trials;
  std::vector<GateEntry> gates;
};

struct ScenarioEntry {
  std::string name;
  std::string title;
  double scale = 0;
  std::vector<RepeatEntry> repeats;
};

/// Present only in documents written by a `--shard i/N` run with N > 1:
/// which slice this is and how many units the full (unsharded) run has.
/// Merge uses it to prove the partition is complete and non-overlapping.
struct ShardStamp {
  int index = 0;
  int count = 1;
  std::uint64_t units_total = 0;
};

struct MatrixDoc {
  int trials_per_scenario = 1;
  std::optional<ShardStamp> shard;
  std::vector<ScenarioEntry> scenarios;
  int failures = 0;
};

// ---------------------------------------------------------------------------
// Encode / decode (one schema, two directions)
// ---------------------------------------------------------------------------

/// Serializes `doc` exactly as the harness `--json` path does (fixed key
/// order, two-space indentation, shortest-round-trip doubles, trailing
/// newline).  The single emitter for ktau-matrix-v1.
void write_matrix_doc(std::ostream& os, const MatrixDoc& doc);

/// Convenience: write_matrix_doc into a string.
std::string matrix_doc_to_string(const MatrixDoc& doc);

/// write_matrix_doc into the file at `path`, flushed and closed.  Returns
/// false if the file cannot be opened or any byte fails to reach it (a
/// full disk, /dev/full), so no caller reports a document it did not store.
bool write_matrix_doc_file(const std::string& path, const MatrixDoc& doc);

/// Strict reader for the subset write_matrix_doc emits: fixed key order,
/// `ktau-matrix-v1` schema tag, null → NaN.  Whitespace between tokens is
/// free-form; everything else must match.  Throws MatrixDocError{Parse}
/// with a byte offset on malformed input.
MatrixDoc parse_matrix_doc(std::string_view text);

// ---------------------------------------------------------------------------
// merge
// ---------------------------------------------------------------------------

/// Reconstructs the unsharded document from the N shard documents of one
/// `--shard i/N` run.  Inputs may be given in any order; each must carry a
/// ShardStamp and the stamps must form a complete partition (indices
/// 0..N-1 exactly once, same count / units_total / trials_per_scenario).
/// Units interleave back in canonical order (shard i holds ordinals
/// congruent to i mod N, in document order), duplicate (scenario, repeat)
/// units throw Overlap, absent ones throw Missing.  The result carries no
/// stamp and `failures` is the sum over shards — byte-identical to the
/// document a `--jobs 1` unsharded run writes.
MatrixDoc merge_matrix_docs(const std::vector<MatrixDoc>& shards);

// ---------------------------------------------------------------------------
// validate
// ---------------------------------------------------------------------------

/// Repeat statistics for one (scenario, trial, metric) series, in document
/// order.  Quantiles are nearest-rank (QuantileEstimator exact mode): with
/// n repeats the 95% interval is the ceil(0.025 n)-th .. ceil(0.975 n)-th
/// order statistic — degenerate at n = 1 by construction.
struct MetricStats {
  std::string scenario;
  std::string trial;
  std::string metric;
  int n = 0;
  double min = 0;
  double median = 0;
  double mean = 0;
  double ci_lo = 0;
  double ci_hi = 0;
};

std::vector<MetricStats> doc_metric_stats(const MatrixDoc& doc);

/// One assertion from a BENCH_budgets file: the median of the named metric
/// across repeats must lie in [lo, hi].
struct Budget {
  std::string scenario;
  std::string trial;
  std::string metric;
  double lo = 0;
  double hi = 0;
};

/// Parses the budgets format: one `scenario|trial|metric|lo|hi` per line,
/// `#` comments and blank lines ignored.  Throws MatrixDocError{Budget}.
std::vector<Budget> parse_budgets(std::string_view text);

/// Renders the statistics table and (when budgets are given) the budget
/// assertion lines.  Returns the number of violated budgets; a budget
/// whose series is absent from the document counts as violated.
int render_validation(std::ostream& os, const MatrixDoc& doc,
                      const std::vector<Budget>& budgets);

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/// Compares `next` against `base` per (scenario, repeat, trial, metric) and
/// reports every relative drift strictly above `threshold` (0.05 = 5%),
/// every gate flip, and every structural change (scenario / repeat / trial
/// / metric / gate present on only one side).  Relative drift is
/// |next - base| / |base| (a zero or NaN base with a differing next counts
/// as drift).  NaN == NaN for this purpose.  Returns the number of
/// reported lines — the tool's exit status.  Throws std::invalid_argument
/// unless `threshold` is finite and >= 0.
int render_diff(std::ostream& os, const MatrixDoc& base,
                const MatrixDoc& next, double threshold);

}  // namespace ktau::analysis
