// Hop-limited shortest paths (round-synchronous Bellman–Ford).
//
// The defining quantity of a hopset (Definition 2.4) is dist^h: the
// lightest path using at most h edges. This module computes it exactly —
// each of the h rounds relaxes every edge once, so the PRAM depth is
// O(h log n) and work O(hm), matching the query stage of [KS97] that
// Theorems 1.2 / 4.4 plug hopsets into. It also measures the *effective*
// hop radius: the smallest h at which dist^h reaches a target value.
//
// ApproxShortestPaths::query answers s-t pairs with the label-setting
// st_sweep (st_sweep.hpp) and reruns this sweep only for a scale whose
// lightest s-t path is over the hop budget; query_all, hops_to_approx and
// the parallel round drivers use it directly.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sssp/sssp_workspace.hpp"
#include "util/deadline.hpp"

namespace parsh {

struct HopLimitedResult {
  /// dist[v] = weight of the lightest path source->v with <= h edges.
  std::vector<weight_t> dist;
  /// Rounds actually executed (may be < h if distances converged early).
  std::uint64_t rounds = 0;
  /// Total edge relaxations performed (work proxy).
  std::uint64_t relaxations = 0;
};

/// Counters of one workspace-resident run (the distances stay in the
/// workspace: ws.dist_of / ws.touched()).
struct HopLimitedStats {
  std::uint64_t rounds = 0;
  std::uint64_t relaxations = 0;
  /// The deadline expired between rounds and the sweep stopped early. The
  /// workspace distances are still valid upper bounds on dist^h (every
  /// settled value is an achievable path weight) — just possibly looser
  /// than the full h rounds would have produced.
  bool deadline_hit = false;
};

/// Exact dist^h from `source` with at most `h` hops. The loop exits early
/// once a round improves nothing (the result is then dist^n — useful as an
/// exact oracle). Vertices farther than `dist_limit` are pruned: the
/// Section 5 query engine passes each scale's distance cap so out-of-scale
/// searches die cheaply.
HopLimitedResult hop_limited_sssp(const Graph& g, vid source, std::uint64_t h,
                                  weight_t dist_limit = kInfWeight);

/// Workspace form — what query_all and the s-t query's fallback run:
/// distances are left in `ws` (valid until its next run) instead of
/// materializing an n-vector, and warm calls whose reach fits the
/// workspace's high-water buffers perform zero heap allocations. Iterate
/// ws.touched() to read the reached set sparsely.
///
/// `deadline` is polled between rounds (cooperative cancellation — the
/// serving layer's per-request budget): on expiry the sweep returns with
/// deadline_hit set and whatever distances the completed rounds settled.
/// The default never-expiring deadline makes the check a flag test.
///
/// `target` (default kNoVertex: none) bounds the sweep by dist(target):
/// each round drops proposals at or above the target's round-start
/// distance, and vertices at or above its post-round distance leave the
/// frontier. Only ws.dist_of(target) is then exact dist^h — after every
/// round, bit-equal to the unbounded sweep's — while other touched
/// vertices hold upper bounds. rounds/relaxations fall but stay
/// schedule-independent. The s-t query's fallback passes its t;
/// all-targets callers pass none.
HopLimitedStats hop_limited_sssp(const Graph& g, vid source, std::uint64_t h,
                                 weight_t dist_limit, SsspWorkspace& ws,
                                 const Deadline& deadline = Deadline::never(),
                                 vid target = kNoVertex);

/// The number of hops needed for the s-t distance to drop to within
/// (1+eps) of `true_dist`: runs rounds until
/// dist^h(s,t) <= (1+eps) * true_dist and returns that h
/// (or `h_cap` if the bound is not reached by then). The rounds are
/// target-bounded as above, so h is the unbounded sweep's at less work.
std::uint64_t hops_to_approx(const Graph& g, vid s, vid t, weight_t true_dist,
                             double eps, std::uint64_t h_cap);

}  // namespace parsh
