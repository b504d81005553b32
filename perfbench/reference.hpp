// Host-speed reference for the end-to-end timings.
//
// The benchmark runs on shared hosts whose speed drifts by ±20 % over
// minutes with other tenants' load; the drift moves every CPU-bound
// timing alike.  A timed run interleaves this fixed loop with its
// operations, and run.py scales each operation by the loop's nominal time
// over its best time just before or after that operation, so the drift
// cancels while any change to the simulator moves the result in full.
#pragma once

namespace perfbench {

/// Runs the fixed reference loop once (~14 ms on the sizing host) and
/// returns its wall-clock seconds.
double reference_loop_seconds();

}  // namespace perfbench
