#include "sssp/weighted_bfs.hpp"

#include <cassert>
#include <cmath>
#include <span>

#include "graph/validation.hpp"
#include "parallel/bucket_engine.hpp"
#include "parallel/work_depth.hpp"

namespace parsh {

namespace {

/// The workspace state one Dial run needs, bundled so the anonymous
/// helper below stays out of SsspWorkspace's friend surface.
struct DialRefs {
  BucketEngine<vid>& buckets;
  std::vector<std::atomic<weight_t>>& dist;
  std::vector<vid>& parent;
  std::vector<vid>& owner;
  std::vector<vid>& touched;
  std::vector<vid>& bucket_buf;
  std::atomic<std::uint64_t>& allocs;
};

/// Dial-style bucketed search over integer weights, on the workspace's
/// shared frontier engine: the calendar window covers the common distance
/// values and the engine's overflow store absorbs far keys (after
/// Klein-Subramanian rounding the weight range can be large while the
/// frontier touches few distinct distances). Relaxations stay sequential —
/// the equal-distance owner tie-break below depends on processing order,
/// so this is the one traversal that does NOT adopt the degree-aware
/// FrontierRelaxer: its parallelism lives a level up, across sources /
/// centers via SsspWorkspacePool (the hopset fan-out, query batches),
/// where per-search skew cannot serialize other searches.
/// Each nonempty bucket is one synchronous round in the PRAM reading of
/// the weighted parallel BFS of Section 5. Results are left in the
/// workspace arrays (dist-infinity invariant: every improved vertex is
/// recorded in `touched`).
std::uint64_t run_dial(const Graph& g, DialRefs r, std::span<const vid> sources,
                       weight_t limit) {
  r.buckets.reset();
  auto dist_of = [&](vid v) { return r.dist[v].load(std::memory_order_relaxed); };
  auto set_dist = [&](vid v, weight_t d) {
    r.dist[v].store(d, std::memory_order_relaxed);
  };
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const vid s = sources[i];
    if (dist_of(s) != kInfWeight) continue;  // duplicate source
    set_dist(s, 0);
    r.parent[s] = kNoVertex;
    r.owner[s] = static_cast<vid>(i);
    detail::push_counted(r.touched, s, r.allocs);
    r.buckets.push(0, s);
  }
  std::uint64_t rounds = 0;
  std::vector<vid>& bucket = r.bucket_buf;
  std::uint64_t key;
  while ((key = r.buckets.pop_round(bucket)) != kNoBucket) {
    const auto d = static_cast<weight_t>(key);
    if (d > limit) break;
    // A vertex may be queued several times (re-inserted on improvement);
    // only entries matching their final distance are settled here.
    bool any_settled = false;
    std::uint64_t touched_work = 0;
    for (vid u : bucket) {
      if (dist_of(u) != d) continue;
      if (!any_settled) {
        any_settled = true;
        ++rounds;
        wd::add_round();
      }
      touched_work += g.degree(u);
      g.for_arcs(u, 0, g.degree(u), [](vid) {}, [&](eid e, vid v) {
        const weight_t w = g.weight(e);
        assert(w >= 1 && w == std::floor(w) && "weighted_bfs requires integer weights");
        const weight_t nd = d + w;
        if (nd > limit) return;
        const weight_t dv = dist_of(v);
        if (nd < dv) {
          if (dv == kInfWeight) detail::push_counted(r.touched, v, r.allocs);
          set_dist(v, nd);
          r.parent[v] = u;
          r.owner[v] = r.owner[u];
          r.buckets.push(static_cast<std::uint64_t>(nd), v);
        } else if (nd == dv && r.owner[u] < r.owner[v]) {
          // Deterministic tie-break: smaller source index wins. Safe
          // because w >= 1 puts v's bucket strictly after u's, so v has
          // not propagated yet.
          r.parent[v] = u;
          r.owner[v] = r.owner[u];
        }
      });
    }
    wd::add_work(touched_work);
  }
  bucket.clear();
  return rounds;
}

}  // namespace

WeightedBfsResult weighted_bfs(const Graph& g, vid source, weight_t limit,
                               SsspWorkspace& ws) {
  require_integer_weights(g, "weighted_bfs");
  require_vertex(g, source, "weighted_bfs");
  const vid n = g.num_vertices();
  ws.begin_run_(n);
  DialRefs refs{ws.frontier_engine_, ws.dist_, ws.parent_, ws.owner_,
                ws.touched_,         ws.frontier_, ws.scratch_allocs_};
  WeightedBfsResult r;
  r.rounds = run_dial(g, refs, std::span<const vid>(&source, 1), limit);
  if (!g.has_flat_adjacency()) ws.counts().compressed += r.rounds;
  r.dist.assign(n, kInfWeight);
  r.parent.assign(n, kNoVertex);
  for (vid v : ws.touched()) {
    r.dist[v] = ws.dist_of(v);
    r.parent[v] = ws.parent_[v];
  }
  return r;
}

WeightedBfsResult weighted_bfs(const Graph& g, vid source, weight_t limit) {
  SsspWorkspace ws;
  return weighted_bfs(g, source, limit, ws);
}

MultiWeightedBfsResult multi_weighted_bfs(const Graph& g, const std::vector<vid>& sources,
                                          weight_t limit, SsspWorkspace& ws) {
  require_integer_weights(g, "multi_weighted_bfs");
  const vid n = g.num_vertices();
  ws.begin_run_(n);
  DialRefs refs{ws.frontier_engine_, ws.dist_, ws.parent_, ws.owner_,
                ws.touched_,         ws.frontier_, ws.scratch_allocs_};
  MultiWeightedBfsResult r;
  r.rounds = run_dial(g, refs, sources, limit);
  if (!g.has_flat_adjacency()) ws.counts().compressed += r.rounds;
  r.dist.assign(n, kInfWeight);
  r.owner.assign(n, kNoVertex);
  for (vid v : ws.touched()) {
    r.dist[v] = ws.dist_of(v);
    r.owner[v] = ws.owner_[v];
  }
  return r;
}

MultiWeightedBfsResult multi_weighted_bfs(const Graph& g, const std::vector<vid>& sources,
                                          weight_t limit) {
  SsspWorkspace ws;
  return multi_weighted_bfs(g, sources, limit, ws);
}

}  // namespace parsh
