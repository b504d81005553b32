// The one scenario runner: every bench_*.cpp scenario registration is
// linked in, and this main runs the shared harness over all scenarios or
// whatever --filter selects.
//
//   bench_matrix --list
//   bench_matrix --filter table2 --scale 0.1
//   bench_matrix --scale 0.1 --jobs 8 --json matrix.json
//   bench_matrix --filter table2,faults --trials 3
#include "experiments/harness.hpp"

int main(int argc, char** argv) {
  return ktau::expt::harness_main(argc, argv);
}
