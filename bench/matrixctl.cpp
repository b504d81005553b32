// matrixctl — deterministic operations over ktau-matrix-v1 documents
// (DESIGN.md §15).  Three subcommands:
//
//   matrixctl merge [-o OUT] SHARD.json...
//       Reconstruct the unsharded document from one `--shard i/N` run's N
//       stamped shard documents, byte-identical to what `bench_matrix
//       --jobs 1` (no --shard) writes.  Overlapping or missing units are
//       typed errors.  Output to stdout unless -o is given.
//
//   matrixctl validate DOC.json [--budgets FILE]
//       Per-metric repeat statistics (min/median/mean, nearest-rank 95%
//       interval) as a stable text table; with --budgets, asserts each
//       listed series' median lies inside its checked-in interval.
//
//   matrixctl diff BASE.json NEXT.json [--threshold T]
//       Per-metric relative drift above T (default 0.05), gate flips, and
//       structural changes between two documents — the consumer for
//       successive weekly paper-scale artifacts.
//
// Exit status: 0 clean; 1 budget violations / drift found; 2 usage, I/O,
// or document errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/matrixdoc.hpp"

namespace {

using ktau::analysis::MatrixDoc;
using ktau::analysis::MatrixDocError;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s merge [-o OUT] SHARD.json...\n"
               "       %s validate DOC.json [--budgets FILE]\n"
               "       %s diff BASE.json NEXT.json [--threshold T]\n",
               argv0, argv0, argv0);
  return 2;
}

bool read_file(const std::string& path, std::string& out, std::string& err) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

MatrixDoc load_doc(const std::string& path) {
  std::string text, err;
  if (!read_file(path, text, err)) {
    throw MatrixDocError(MatrixDocError::Kind::Parse, err);
  }
  try {
    return ktau::analysis::parse_matrix_doc(text);
  } catch (const MatrixDocError& e) {
    throw MatrixDocError(e.kind(), path + ": " + e.what());
  }
}

int cmd_merge(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> inputs;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "matrixctl: -o requires a path\n");
        return 2;
      }
      out_path = argv[++i];
    } else {
      inputs.emplace_back(argv[i]);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "matrixctl: merge needs at least one shard document\n");
    return 2;
  }
  std::vector<MatrixDoc> shards;
  shards.reserve(inputs.size());
  for (const auto& path : inputs) shards.push_back(load_doc(path));
  const MatrixDoc merged = ktau::analysis::merge_matrix_docs(shards);
  if (out_path.empty()) {
    ktau::analysis::write_matrix_doc(std::cout, merged);
  } else {
    if (!ktau::analysis::write_matrix_doc_file(out_path, merged)) {
      std::fprintf(stderr, "matrixctl: cannot write %s\n", out_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "matrixctl: merged %zu shard(s) into %s\n",
                 shards.size(), out_path.c_str());
  }
  return 0;
}

int cmd_validate(int argc, char** argv) {
  std::string doc_path, budgets_path;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--budgets") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "matrixctl: --budgets requires a path\n");
        return 2;
      }
      budgets_path = argv[++i];
    } else if (doc_path.empty()) {
      doc_path = argv[i];
    } else {
      std::fprintf(stderr, "matrixctl: validate takes one document\n");
      return 2;
    }
  }
  if (doc_path.empty()) {
    std::fprintf(stderr, "matrixctl: validate needs a document\n");
    return 2;
  }
  const MatrixDoc doc = load_doc(doc_path);
  std::vector<ktau::analysis::Budget> budgets;
  if (!budgets_path.empty()) {
    std::string text, err;
    if (!read_file(budgets_path, text, err)) {
      std::fprintf(stderr, "matrixctl: %s\n", err.c_str());
      return 2;
    }
    budgets = ktau::analysis::parse_budgets(text);
  }
  const int violations =
      ktau::analysis::render_validation(std::cout, doc, budgets);
  return violations > 0 ? 1 : 0;
}

int cmd_diff(int argc, char** argv) {
  std::string base_path, next_path;
  double threshold = 0.05;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "matrixctl: --threshold requires a value\n");
        return 2;
      }
      char* end = nullptr;
      threshold = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "matrixctl: bad threshold\n");
        return 2;
      }
    } else if (base_path.empty()) {
      base_path = argv[i];
    } else if (next_path.empty()) {
      next_path = argv[i];
    } else {
      std::fprintf(stderr, "matrixctl: diff takes two documents\n");
      return 2;
    }
  }
  if (next_path.empty()) {
    std::fprintf(stderr, "matrixctl: diff needs BASE.json and NEXT.json\n");
    return 2;
  }
  const MatrixDoc base = load_doc(base_path);
  const MatrixDoc next = load_doc(next_path);
  const int drift =
      ktau::analysis::render_diff(std::cout, base, next, threshold);
  return drift > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  try {
    if (cmd == "merge") return cmd_merge(argc - 2, argv + 2);
    if (cmd == "validate") return cmd_validate(argc - 2, argv + 2);
    if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    // MatrixDocError, or render_diff's std::invalid_argument threshold.
    std::fprintf(stderr, "matrixctl: %s\n", e.what());
    return 2;
  }
  return usage(argv[0]);
}
