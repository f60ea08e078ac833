// Label-setting Dial sweep over integer weights — the hot path of
// ApproxShortestPaths::query, and, untargeted, the weighted BFS of
// Section 5 (weighted_bfs.hpp).
//
// Every distance scale's rounded graph has integer weights >= 1 (Lemma
// 5.2's ceil(w / w_hat), and hopset edges that are sums of those), and
// the query only cares about distances up to the scale's cap. So a Dial
// sweep keyed by integer distance settles t after scanning only the arcs
// of vertices strictly closer than t, where a round-synchronous
// Bellman-Ford rescans arcs every time a distance improves. Labels are
// lexicographic (dist, hops): dist(t) comes with the fewest hops over all
// lightest s-t paths, and whenever that count is within the hop budget h,
// dist^h(t) = dist(t) — the quantity [KS97]'s reduction asks for.
//
// Bit-identity with hop_limited_sssp: both compute a path's weight as the
// left-to-right double sum from s, and with positive weights that sum is
// monotone along the path, so both sweeps return the same minimum.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "sssp/sssp_workspace.hpp"
#include "util/deadline.hpp"

namespace parsh {

/// Counters of one st_sweep run (t's distance stays in the workspace:
/// ws.dist_of(target)).
struct StSweepStats {
  /// Arcs scanned (work proxy).
  std::uint64_t relaxations = 0;
  /// t's hop label: the fewest hops over the lightest s-t paths found,
  /// i.e. the depth a round-synchronous sweep needs to settle t. When t
  /// was not reached, the largest hop label among settled vertices (the
  /// depth at which such a sweep runs out of frontier).
  std::uint64_t hops = 0;
  /// Distinct distances settled: the rounds of the weighted parallel BFS
  /// of Section 5, which advances one distance value per round.
  std::uint64_t keys = 0;
  /// The deadline expired and the sweep stopped early. ws.dist_of(target)
  /// then holds t's tentative label: the weight of a real s-t path (an
  /// upper bound on dist(t)), or kInfWeight if none was found yet.
  bool deadline_hit = false;
};

/// Exact dist(source, target) over paths whose every prefix weighs at
/// most `dist_limit`, with its minimum hop count, on a graph whose weights
/// are all integers >= 1 (precondition, not checked per call: the query
/// engine checks its scale graphs once at construction). Stops as soon as
/// t settles. Sequential; the queue lives in `ws`, and warm calls whose
/// keys and reach fit its high-water buffers allocate nothing.
///
/// `target == kNoVertex` settles every vertex within `dist_limit`
/// instead (no early stop). Such a sweep accepts any dist_limit >= 0,
/// kInfWeight included, and caps it at 2^53 - 1; a distance pruned only
/// by that cap throws std::range_error rather than leave its vertex
/// unreached. Work-depth: work is the arcs scanned, rounds are t's hop
/// label, or `keys` when untargeted.
///
/// `deadline` is polled every 256 settled vertices; on expiry the sweep
/// returns with deadline_hit set (see StSweepStats).
StSweepStats st_sweep(const Graph& g, vid source, vid target, weight_t dist_limit,
                      SsspWorkspace& ws, const Deadline& deadline = Deadline::never());

}  // namespace parsh
