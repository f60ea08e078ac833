#include "hopset/hopset.hpp"

#include <algorithm>
#include <cmath>

#include "cluster/est_cluster.hpp"
#include "graph/validation.hpp"
#include "graph/subgraph.hpp"
#include "parallel/parallel_for.hpp"
#include "sssp/sssp_workspace.hpp"
#include "sssp/st_sweep.hpp"

namespace parsh {

double hopset_growth(vid n, const HopsetParams& p) {
  const double ln_n = std::log(std::max<vid>(n, 3));
  return std::max(2.0, p.k_conf * ln_n / p.epsilon);
}

double hopset_rho(vid n, const HopsetParams& p) {
  return std::pow(hopset_growth(n, p), p.delta);
}

double hopset_hop_bound(vid n, const HopsetParams& p, double d) {
  const double n_final = std::max<double>(
      p.n_final_floor, std::pow(static_cast<double>(n), p.gamma1));
  const double beta0 = std::pow(static_cast<double>(n), -p.gamma2);
  return std::pow(static_cast<double>(n), 1.0 / p.delta) *
             std::pow(n_final, 1.0 - 1.0 / p.delta) * beta0 * d +
         n_final;  // +n_final: base-case segments contribute their own hops
}

namespace {

struct BuildContext {
  const HopsetParams& params;
  double growth;
  double rho;
  vid n_final;
  HopsetResult* result;
  /// One clustering workspace for the whole recursion: the level-0 call
  /// warms the engine at full size; every recursive call clusters a
  /// strictly smaller induced subgraph inside the same buffers. Safe
  /// because hopset_recurse descends into sibling clusters sequentially.
  EstClusterWorkspace* ws;
  /// Per-worker traversal workspaces for the per-center weighted-BFS
  /// fan-out (each center's search is sequential; the parallelism is
  /// across centers). Shared across the recursion for the same reason.
  SsspWorkspacePool* sssp;
  /// When non-null, receives a copy of the level-0 clustering.
  Clustering* top_out = nullptr;
};

std::uint64_t splitmix_hash_impl(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent per-(level, cluster) seed for the recursive clusterings —
/// the paper's analysis treats the levels' randomness as independent.
std::uint64_t child_seed(std::uint64_t seed, std::uint64_t level, std::uint64_t idx) {
  return splitmix_hash_impl(seed ^ splitmix_hash_impl(level * 0x100000001b3ULL + idx));
}

/// Recursive step of Algorithm 4 on an induced subgraph. `sub.original_id`
/// maps local vertices back to the host graph, where hopset edges live.
void hopset_recurse(const Subgraph& sub, double beta, std::uint64_t level,
                    std::uint64_t seed, BuildContext& ctx) {
  const Graph& g = sub.graph;
  const vid n = g.num_vertices();
  HopsetResult& out = *ctx.result;
  out.levels = std::max(out.levels, level);
  if (n <= ctx.n_final) return;  // Line 1: base case

  // Line 2: exponential start time clustering.
  const Clustering c = est_cluster(g, beta, seed, *ctx.ws);
  if (level == 0 && ctx.top_out) *ctx.top_out = c;
  ++out.clusterings;
  out.rounds += c.rounds;
  const std::vector<vid> sizes = c.sizes();

  std::vector<vid> small_clusters;
  if (level == 0) {
    // Lines 3-4: the first call recurses on every cluster.
    small_clusters.resize(c.num_clusters);
    for (vid i = 0; i < c.num_clusters; ++i) small_clusters[i] = i;
  } else {
    // Lines 6-7: split by the size threshold |V|/rho.
    const double threshold = static_cast<double>(n) / ctx.rho;
    std::vector<vid> large_clusters;
    for (vid i = 0; i < c.num_clusters; ++i) {
      if (static_cast<double>(sizes[i]) >= threshold) {
        large_clusters.push_back(i);
      } else {
        small_clusters.push_back(i);
      }
    }
    if (!large_clusters.empty()) {
      // Line 8: star edges center -> every member, weight = tree distance
      // (an actual path inside the cluster).
      std::vector<char> is_large_cluster(c.num_clusters, 0);
      for (vid lc : large_clusters) is_large_cluster[lc] = 1;
      for (vid v = 0; v < n; ++v) {
        const vid cl = c.cluster_of[v];
        if (!is_large_cluster[cl]) continue;
        const vid ctr = c.center[cl];
        if (v == ctr) continue;
        out.edges.push_back(
            {sub.original_id[v], sub.original_id[ctr], c.dist_to_center[v]});
        ++out.star_edges;
      }
      // Line 9: clique edges between large-cluster centers, weight =
      // exact distance within this subgraph (one weighted BFS per center:
      // an untargeted st_sweep, [UY91]-style parallel BFS in the PRAM
      // reading). The graph's integer weights were checked at entry, and
      // induced subgraphs keep them. Only the distances to later centers
      // are read out of the workspace: row i of `dist` holds them.
      const std::size_t k = large_clusters.size();
      std::vector<vid> centers(k);
      for (std::size_t i = 0; i < k; ++i) centers[i] = c.center[large_clusters[i]];
      std::vector<weight_t> dist(k * k);
      std::vector<std::uint64_t> keys(k);
      ctx.sssp->prepare();
      parallel_for_grain(0, k, 1, [&](std::size_t i) {
        SsspWorkspace& ws = ctx.sssp->local();
        keys[i] = st_sweep(g, centers[i], kNoVertex, kInfWeight, ws).keys;
        for (std::size_t j = i + 1; j < k; ++j) dist[i * k + j] = ws.dist_of(centers[j]);
      });
      for (std::size_t i = 0; i < k; ++i) {
        out.rounds += keys[i];
        for (std::size_t j = i + 1; j < k; ++j) {
          const weight_t d = dist[i * k + j];
          if (d == kInfWeight) continue;  // different components
          out.edges.push_back(
              {sub.original_id[centers[i]], sub.original_id[centers[j]], d});
          ++out.clique_edges;
        }
      }
    }
  }

  // Line 10 (and 4): recurse on (small) clusters with grown beta. A
  // one-vertex cluster has nothing to recurse on; the others become
  // children 0, 1, ... in small_clusters order, all built in one pass.
  if (small_clusters.empty()) return;
  std::vector<vid> child_of(c.num_clusters, kNoVertex);
  std::vector<vid> child_cluster;
  for (vid sc : small_clusters) {
    if (sizes[sc] <= 1) continue;
    child_of[sc] = static_cast<vid>(child_cluster.size());
    child_cluster.push_back(sc);
  }
  std::vector<vid> child_label(n);
  for (vid v = 0; v < n; ++v) child_label[v] = child_of[c.cluster_of[v]];
  std::vector<Subgraph> children = induced_subgraphs_by_label(
      g, child_label, static_cast<vid>(child_cluster.size()));
  const double next_beta = beta * ctx.growth;
  for (std::size_t i = 0; i < children.size(); ++i) {
    Subgraph child = std::move(children[i]);
    // Re-map the child's original ids through this subgraph's map.
    for (vid& ov : child.original_id) ov = sub.original_id[ov];
    hopset_recurse(child, next_beta, level + 1,
                   child_seed(seed, level, child_cluster[i]), ctx);
  }
}

}  // namespace

HopsetResult build_hopset(const Graph& g, const HopsetParams& p) {
  EstClusterWorkspace cluster_ws;
  SsspWorkspacePool sssp_ws;
  return build_hopset(g, p, cluster_ws, sssp_ws);
}

HopsetResult build_hopset(const Graph& g, const HopsetParams& p,
                          EstClusterWorkspace& cluster_ws,
                          SsspWorkspacePool& sssp_ws) {
  return build_hopset(g, p, cluster_ws, sssp_ws, nullptr);
}

HopsetResult build_hopset(const Graph& g, const HopsetParams& p,
                          EstClusterWorkspace& cluster_ws,
                          SsspWorkspacePool& sssp_ws,
                          Clustering* top_clustering) {
  require_integer_weights(g, "build_hopset");
  if (!(p.delta > 1.0)) {
    throw std::invalid_argument("build_hopset: delta must exceed 1 (Section 4)");
  }
  if (!(p.epsilon > 0)) {
    throw std::invalid_argument("build_hopset: epsilon must be positive");
  }
  HopsetResult out;
  const vid n = g.num_vertices();
  if (n == 0) return out;
  const vid n_final =
      p.n_final_override > 0
          ? p.n_final_override
          : std::max<vid>(p.n_final_floor,
                          static_cast<vid>(std::pow(static_cast<double>(n), p.gamma1)));
  if (top_clustering) *top_clustering = Clustering{};
  BuildContext ctx{p,     hopset_growth(n, p), hopset_rho(n, p),
                   n_final, &out,              &cluster_ws,
                   &sssp_ws, top_clustering};
  out.growth = ctx.growth;
  out.rho = ctx.rho;
  out.n_final = ctx.n_final;
  out.beta0 = p.beta0_override > 0 ? p.beta0_override
                                   : std::pow(static_cast<double>(n), -p.gamma2);

  Subgraph whole;
  whole.graph = g;
  whole.original_id.resize(n);
  for (vid v = 0; v < n; ++v) whole.original_id[v] = v;
  hopset_recurse(whole, out.beta0, 0, p.seed, ctx);
  return out;
}

}  // namespace parsh
