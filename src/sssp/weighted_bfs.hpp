// Weighted parallel BFS over integer weights (Dial bucket queue).
//
// Section 5 runs "weighted parallel BFS" after Klein–Subramanian rounding
// has made all weights small positive integers: the search advances one
// distance unit per synchronous round, so depth is proportional to the
// (rounded) radius, exactly as the paper analyses. Requires integer
// weights >= 1. The search is st_sweep (st_sweep.hpp) with no target,
// which keeps the library's one Dial queue.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sssp/sssp_workspace.hpp"

namespace parsh {

struct WeightedBfsResult {
  std::vector<weight_t> dist;  ///< kInfWeight if unreached
  std::uint64_t rounds = 0;    ///< distinct distances settled (depth proxy)
};

/// Weighted BFS from `source`; weights must be positive integers. The
/// search stops at distance `limit` (exclusive of farther vertices); a
/// reached distance of 2^53 or more throws std::range_error.
WeightedBfsResult weighted_bfs(const Graph& g, vid source,
                               weight_t limit = kInfWeight);

/// Workspace form for iterated callers: the queue and the per-vertex
/// arrays live in `ws`, warm calls allocate nothing. Same output as the
/// plain form.
WeightedBfsResult weighted_bfs(const Graph& g, vid source, weight_t limit,
                               SsspWorkspace& ws);

}  // namespace parsh
