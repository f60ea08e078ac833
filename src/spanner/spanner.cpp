#include "spanner/spanner.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <tuple>

#include "parallel/work_depth.hpp"

namespace parsh {

namespace {

/// beta = ln(n) / (2k), the decomposition rate of Algorithm 2 / 3.
double spanner_beta(vid n, double k) {
  return std::log(std::max<vid>(n, 2)) / (2.0 * k);
}

/// Canonicalize (u < v) and drop duplicates — the two endpoints of a
/// cluster-crossing edge may both nominate it as their boundary pick.
void dedup_edges(std::vector<Edge>& edges) {
  for (Edge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.u, a.v, a.w) < std::tie(b.u, b.v, b.w);
  });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const Edge& a, const Edge& b) {
                            return a.u == b.u && a.v == b.v;
                          }),
              edges.end());
}

/// Forest + boundary edges of one EST clustering, reported through a
/// caller-supplied edge resolver (identity for the unweighted algorithm;
/// quotient-edge representatives for Algorithm 3).
///
/// `emit_forest(v, parent)` and `emit_boundary(u, v)` receive local vertex
/// ids of `g`.
template <typename EmitForest, typename EmitBoundary>
void cluster_and_emit(const Graph& g, double k, std::uint64_t seed,
                      EstClusterWorkspace& ws, std::uint64_t* rounds,
                      EmitForest emit_forest, EmitBoundary emit_boundary) {
  const Clustering c = est_cluster(g, spanner_beta(g.num_vertices(), k), seed, ws);
  *rounds += c.rounds;
  for (vid v = 0; v < g.num_vertices(); ++v) {
    if (c.parent[v] != kNoVertex) emit_forest(v, c.parent[v]);
  }
  // Line 2 of Algorithm 2: from each boundary vertex add one edge to each
  // adjacent cluster. Deterministic pick: the smallest-id neighbour in
  // that cluster.
  std::vector<std::pair<vid, vid>> picks;  // (cluster, neighbour), reused per vertex
  for (vid v = 0; v < g.num_vertices(); ++v) {
    picks.clear();
    const vid cv = c.cluster_of[v];
    for (eid e = g.begin(v); e < g.end(v); ++e) {
      const vid u = g.target(e);
      const vid cu = c.cluster_of[u];
      if (cu != cv) picks.emplace_back(cu, u);
    }
    if (picks.empty()) continue;
    std::sort(picks.begin(), picks.end());
    for (std::size_t i = 0; i < picks.size(); ++i) {
      if (i > 0 && picks[i].first == picks[i - 1].first) continue;
      emit_boundary(v, picks[i].second);
    }
  }
}

}  // namespace

SpannerResult unweighted_spanner(const Graph& g, double k, std::uint64_t seed) {
  SpannerResult r;
  r.levels = 1;
  auto edge_weight = [&](vid u, vid v) {
    for (eid e = g.begin(u); e < g.end(u); ++e) {
      if (g.target(e) == v) return g.weight(e);
    }
    return weight_t{1};
  };
  EstClusterWorkspace ws;
  cluster_and_emit(
      g, k, seed, ws, &r.rounds,
      [&](vid v, vid p) { r.edges.push_back({v, p, edge_weight(v, p)}); },
      [&](vid u, vid v) { r.edges.push_back({u, v, edge_weight(u, v)}); });
  dedup_edges(r.edges);
  return r;
}

std::vector<std::vector<Edge>> weight_buckets(const Graph& g) {
  std::vector<std::vector<Edge>> buckets;
  for (const Edge& e : g.undirected_edges()) {
    auto b = static_cast<std::size_t>(std::floor(std::log2(std::max<weight_t>(e.w, 1))));
    if (b >= buckets.size()) buckets.resize(b + 1);
    buckets[b].push_back(e);
  }
  return buckets;
}

namespace {

/// Incremental union-find over the host vertices; components are the
/// contracted pieces H_{i-1} of Algorithm 3.
class Dsu {
 public:
  explicit Dsu(vid n) : parent_(n) { std::iota(parent_.begin(), parent_.end(), 0); }
  vid find(vid v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  void unite(vid a, vid b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<vid> parent_;
};

}  // namespace

namespace {

/// Algorithm 3 with a caller-owned clustering workspace: one engine warms
/// across every level's quotient clustering (and, via weighted_spanner,
/// across the O(log k) well-separated sub-runs too).
SpannerResult well_separated_spanner_ws(vid n,
                                        const std::vector<std::vector<Edge>>& buckets,
                                        double k, std::uint64_t seed,
                                        EstClusterWorkspace& ws) {
  SpannerResult r;
  Dsu dsu(n);
  for (std::size_t level = 0; level < buckets.size(); ++level) {
    const std::vector<Edge>& bucket = buckets[level];
    if (bucket.empty()) continue;
    ++r.levels;
    // Build the quotient graph Gamma_i = G[A_i] / H_{i-1} with uniform
    // weights. Vertices: contracted components touched by this bucket,
    // relabelled densely. Each quotient edge keeps one representative
    // original edge (min (u,v,w) for determinism).
    std::vector<vid> component_of_host(n, kNoVertex);  // host component -> local id
    std::vector<vid> locals;                      // local id -> host component
    auto local_of = [&](vid host_comp) {
      if (component_of_host[host_comp] == kNoVertex) {
        component_of_host[host_comp] = static_cast<vid>(locals.size());
        locals.push_back(host_comp);
      }
      return component_of_host[host_comp];
    };
    std::map<std::pair<vid, vid>, Edge> rep;  // quotient edge -> original edge
    for (const Edge& e : bucket) {
      const vid cu = dsu.find(e.u), cv = dsu.find(e.v);
      if (cu == cv) continue;  // already contracted — zero stretch cost
      vid a = local_of(cu), b = local_of(cv);
      if (a > b) std::swap(a, b);
      auto [it, inserted] = rep.try_emplace({a, b}, e);
      if (!inserted) {
        const Edge& cur = it->second;
        if (std::tie(e.w, e.u, e.v) < std::tie(cur.w, cur.u, cur.v)) it->second = e;
      }
    }
    if (rep.empty()) continue;
    std::vector<Edge> qedges;
    qedges.reserve(rep.size());
    for (const auto& [key, orig] : rep) {
      qedges.push_back({key.first, key.second, 1.0});  // uniform weights
      (void)orig;
    }
    const Graph quotient =
        Graph::from_edges(static_cast<vid>(locals.size()), std::move(qedges));
    auto resolve = [&](vid a, vid b) {
      if (a > b) std::swap(a, b);
      return rep.at({a, b});
    };
    std::vector<Edge> forest_edges;
    cluster_and_emit(
        quotient, k, seed + level + 1, ws, &r.rounds,
        [&](vid v, vid p) { forest_edges.push_back(resolve(v, p)); },
        [&](vid u, vid v) { r.edges.push_back(resolve(u, v)); });
    // S := S ∪ F and H_i := H_{i-1} ∪ F (contract the forest for the next
    // level).
    for (const Edge& e : forest_edges) {
      r.edges.push_back(e);
      dsu.unite(e.u, e.v);
    }
  }
  dedup_edges(r.edges);
  return r;
}

}  // namespace

SpannerResult well_separated_spanner(vid n, const std::vector<std::vector<Edge>>& buckets,
                                     double k, std::uint64_t seed) {
  EstClusterWorkspace ws;
  return well_separated_spanner_ws(n, buckets, k, seed, ws);
}

SpannerResult weighted_spanner(const Graph& g, double k, std::uint64_t seed) {
  // Break the graph into O(log k) edge-disjoint graphs whose used weight
  // buckets are >= ~4k apart (stride in bucket index), then run
  // Algorithm 3 on each. stride = ceil(log2(4k)) buckets ensures
  // consecutive levels' weights differ by >= 2^{stride-1} >= 2k.
  const auto buckets = weight_buckets(g);
  const auto stride =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(std::log2(4.0 * k))));
  SpannerResult r;
  EstClusterWorkspace ws;  // shared by all O(log k) sub-runs
  for (std::size_t j = 0; j < stride && j < buckets.size(); ++j) {
    std::vector<std::vector<Edge>> sub;
    for (std::size_t b = j; b < buckets.size(); b += stride) sub.push_back(buckets[b]);
    SpannerResult part =
        well_separated_spanner_ws(g.num_vertices(), sub, k, seed ^ (j * 0x9e37ULL), ws);
    r.edges.insert(r.edges.end(), part.edges.begin(), part.edges.end());
    r.rounds += part.rounds;
    r.levels += part.levels;
  }
  dedup_edges(r.edges);  // the G_j are edge-disjoint, but keep the invariant
  return r;
}

}  // namespace parsh
