#include "hopset/weighted_hopset.hpp"

#include <cmath>

#include "cluster/est_cluster.hpp"
#include "graph/validation.hpp"
#include "hopset/rounding.hpp"
#include "sssp/sssp_workspace.hpp"

namespace parsh {

namespace {

double resolve_k_hops(const WeightedHopsetParams& p, vid n) {
  return p.k_hops > 0 ? p.k_hops : 8.0 * std::sqrt(static_cast<double>(n));
}

double resolve_scale_ratio(const WeightedHopsetParams& p, vid n) {
  return std::pow(static_cast<double>(std::max<vid>(n, 2)), p.eta);
}

/// The d sequence the build walks: d = min_w * ratio^i while
/// d / ratio <= n * max_w. Deterministic in (min_w, max_w, n, ratio), so
/// comparing two ladders is how the incremental rebuild decides whether
/// the delta moved the scale structure itself.
std::vector<weight_t> scale_ladder(const Graph& g, double scale_ratio) {
  std::vector<weight_t> ds;
  const weight_t lo = g.min_weight();
  const weight_t hi = static_cast<weight_t>(g.num_vertices()) * g.max_weight();
  for (weight_t d = lo; d / scale_ratio <= hi; d *= scale_ratio) ds.push_back(d);
  return ds;
}

/// Build one distance scale: Klein-Subramanian prune, Lemma 5.2 rounding,
/// Algorithm 4 hopset, merge. Deterministic in (g's edge multiset, d,
/// params, scale_idx) — the incremental rebuild leans on this to reuse
/// clean scales bit-for-bit.
HopsetScale build_one_scale(const Graph& g, const WeightedHopsetParams& p,
                            weight_t d, double scale_ratio, double k_hops,
                            std::uint64_t scale_idx,
                            EstClusterWorkspace& cluster_ws,
                            SsspWorkspacePool& sssp_ws) {
  const vid n = g.num_vertices();
  HopsetScale scale;
  scale.d = d;
  // Klein-Subramanian prune: a path of weight <= c*d cannot use an edge
  // heavier than c*d, so those edges are dropped for this scale. This
  // caps the rounded weights at ~c*k/zeta (Lemma 5.2) and keeps the
  // bucketed searches shallow.
  RoundedGraph rg =
      round_weights(g.prune_heavier_than(d * scale_ratio), d, k_hops, p.zeta);
  scale.w_hat = rg.w_hat;
  HopsetParams hp = p.hopset;
  hp.seed = p.hopset.seed ^ (0x5bd1e995ULL * (scale_idx + 1));
  if (hp.beta0_override <= 0 && rg.graph.num_edges() > 0) {
    // beta0 = n^{-gamma2} is calibrated to unit weights; the rounded
    // graph's distances are inflated by its mean edge weight, so scale
    // beta0 down by it — top-level clusters then span ~n^{gamma2} hops
    // at every scale (the quantity Theorem 4.4's depth is stated in).
    // Summed in undirected-edge order (u < v, row by row), which fixes
    // the rounding of the sum and so beta0.
    const Graph& r = rg.graph;
    double mean_w = 0;
    for (vid u = 0; u < n; ++u) {
      r.for_arcs(u, 0, r.degree(u), [](vid) {}, [&](eid e, vid v) {
        if (u < v) mean_w += r.weight(e);
      });
    }
    mean_w /= static_cast<double>(r.num_edges());
    hp.beta0_override =
        std::pow(static_cast<double>(n), -hp.gamma2) / std::max(1.0, mean_w);
  }
  Clustering top;
  HopsetResult hr = build_hopset(rg.graph, hp, cluster_ws, sssp_ws, &top);
  scale.rounds = hr.rounds;
  scale.hopset_edges = hr.edges.size();
  scale.top_cluster_of = std::move(top.cluster_of);
  scale.top_clusters = top.num_clusters;
  // Merge the hopset into the rounded graph once, so queries run on a
  // single CSR structure.
  scale.rounded = rg.graph.with_extra_edges(hr.edges);
  return scale;
}

}  // namespace

WeightedHopset build_weighted_hopset(const Graph& g, const WeightedHopsetParams& p,
                                     EstClusterWorkspace& cluster_ws,
                                     SsspWorkspacePool& sssp_ws) {
  require_positive_weights(g, "build_weighted_hopset");
  WeightedHopset out;
  out.eta = p.eta;
  const vid n = g.num_vertices();
  if (n == 0 || g.num_edges() == 0) return out;

  const double k_hops = resolve_k_hops(p, n);
  out.k_hops = k_hops;
  const double scale_ratio = resolve_scale_ratio(p, n);
  const std::vector<weight_t> ladder = scale_ladder(g, scale_ratio);
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    HopsetScale scale = build_one_scale(g, p, ladder[i], scale_ratio, k_hops,
                                        i, cluster_ws, sssp_ws);
    out.rounds += scale.rounds;
    out.total_hopset_edges += scale.hopset_edges;
    out.scales.push_back(std::move(scale));
  }
  return out;
}

WeightedHopset build_weighted_hopset(const Graph& g, const WeightedHopsetParams& p) {
  // One clustering workspace + one traversal-workspace pool for every
  // scale's hopset build: the first scale warms the buffers, the rest run
  // inside them (the preprocessing half of the reuse story; queries get
  // the same treatment through ApproxShortestPaths::query_batch).
  EstClusterWorkspace cluster_ws;
  SsspWorkspacePool sssp_ws;
  return build_weighted_hopset(g, p, cluster_ws, sssp_ws);
}

WeightedHopset rebuild_weighted_hopset(const Graph& g, const WeightedHopsetParams& p,
                                       const WeightedHopset& prev,
                                       const std::vector<EdgeChange>& changes,
                                       EstClusterWorkspace& cluster_ws,
                                       SsspWorkspacePool& sssp_ws,
                                       HopsetRebuildStats* stats) {
  HopsetRebuildStats local;
  HopsetRebuildStats& st = stats ? *stats : local;
  st = HopsetRebuildStats{};
  for (const HopsetScale& s : prev.scales) {
    st.total_clusters += std::max<vid>(s.top_clusters, 1);
  }

  const vid n = g.num_vertices();
  const double k_hops = n > 0 ? resolve_k_hops(p, n) : 0;
  const double scale_ratio = resolve_scale_ratio(p, n);
  const std::vector<weight_t> ladder =
      (n == 0 || g.num_edges() == 0) ? std::vector<weight_t>{}
                                     : scale_ladder(g, scale_ratio);

  // The ladder is a pure function of (min_w, n * max_w, ratio); if the
  // delta moved it (or the knobs changed), per-scale reuse is meaningless
  // — scale i before and after are different bands. Rebuild from scratch
  // (still through the caller's warm workspaces).
  bool ladder_moved = ladder.size() != prev.scales.size() ||
                      prev.eta != p.eta ||
                      (n > 0 && prev.k_hops != k_hops && !prev.scales.empty());
  if (!ladder_moved) {
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      if (ladder[i] != prev.scales[i].d) ladder_moved = true;
    }
  }
  if (ladder_moved) {
    st.full_rebuild = true;
    st.total_scales = ladder.size();
    st.dirty_scales = ladder.size();
    st.dirty_clusters = st.total_clusters;
    return build_weighted_hopset(g, p, cluster_ws, sssp_ws);
  }

  // A change is visible to a scale iff it survives that scale's prune on
  // at least one side: rel = min over present sides of (w_old, w_new).
  // rel > cap means the edge was absent from the pruned graph before AND
  // after — the scale's input is untouched.
  auto rel_weight = [](const EdgeChange& c) {
    if (c.w_old == 0) return c.w_new;
    if (c.w_new == 0) return c.w_old;
    return std::min(c.w_old, c.w_new);
  };

  WeightedHopset out;
  out.eta = p.eta;
  out.k_hops = prev.k_hops;
  st.total_scales = ladder.size();
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const weight_t cap = ladder[i] * scale_ratio;
    bool dirty = false;
    for (const EdgeChange& c : changes) {
      if (rel_weight(c) <= cap) {
        dirty = true;
        break;
      }
    }
    if (!dirty) {
      // Clean scale: identical pruned input + deterministic build =>
      // reusing the previous scale IS the rebuild, bit for bit. O(1):
      // Graph copies share handles.
      out.scales.push_back(prev.scales[i]);
    } else {
      ++st.dirty_scales;
      // Dirty-region accounting against the PREVIOUS partition: which
      // top-level clusters do the scale-relevant changes touch?
      const HopsetScale& ps = prev.scales[i];
      if (ps.top_cluster_of.empty()) {
        ++st.dirty_clusters;  // never clustered: one base-case region
      } else {
        std::vector<char> seen(std::max<vid>(ps.top_clusters, 1), 0);
        for (const EdgeChange& c : changes) {
          if (rel_weight(c) > cap) continue;
          for (vid v : {c.u, c.v}) {
            if (v < ps.top_cluster_of.size()) {
              const vid cl = ps.top_cluster_of[v];
              if (cl < seen.size() && !seen[cl]) {
                seen[cl] = 1;
                ++st.dirty_clusters;
              }
            }
          }
        }
      }
      out.scales.push_back(build_one_scale(g, p, ladder[i], scale_ratio,
                                           prev.k_hops, i, cluster_ws, sssp_ws));
    }
    out.rounds += out.scales.back().rounds;
    out.total_hopset_edges += out.scales.back().hopset_edges;
  }
  return out;
}

}  // namespace parsh
