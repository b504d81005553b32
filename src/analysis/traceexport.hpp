// Loss-aware merge of periodic trace frames: ktaud's per-period cursor
// drains stitched back into one record stream per pid, with every known
// loss kept as a typed gap, for the merged timeline view
// (analysis::merge_timeline, Figure 2-E).
#pragma once

#include <vector>

#include "ktau/snapshot.hpp"

namespace ktau::analysis {

/// Stitches a sequence of trace frames (ktaud's periodic cursor drains, in
/// extraction order) into one combined snapshot: per-pid records
/// concatenated, typed loss records accumulated, event tables unioned by
/// id.  The merge is loss-aware twice over: each frame's own gaps carry
/// through, and a cursor discontinuity *between* frames (frame N+1's
/// base_seq past frame N's next_seq — a reset reader or a skipped frame)
/// is synthesized into a gap rather than silently closed over.
meas::TraceSnapshot merge_trace_frames(
    const std::vector<meas::TraceSnapshot>& frames);

}  // namespace ktau::analysis
