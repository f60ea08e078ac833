#include "spanner/low_stretch_tree.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <tuple>

#include "cluster/est_cluster.hpp"
#include "graph/connectivity.hpp"
#include "sssp/dijkstra.hpp"

namespace parsh {

namespace {

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
  bool unite(vid a, vid b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[std::max(a, b)] = std::min(a, b);
    return true;
  }

 private:
  std::vector<vid> parent_;
};

}  // namespace

TreeResult akpw_low_stretch_tree(const Graph& g, double k, std::uint64_t seed) {
  TreeResult out;
  const vid n = g.num_vertices();
  if (n == 0) return out;
  Dsu dsu(n);
  // Buckets by weight (powers of two), lightest first — AKPW processes
  // weight classes in order so light edges get contracted before heavy
  // ones are considered.
  std::vector<Edge> edges = g.undirected_edges();
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.w, a.u, a.v) < std::tie(b.w, b.u, b.v);
  });
  std::size_t next = 0;
  std::vector<Edge> active;  // edges of buckets processed so far, not yet resolved
  const double beta = std::log(std::max<vid>(n, 2)) / (2.0 * k);
  std::uint64_t iter = 0;
  // One clustering workspace across every weight-class iteration: AKPW
  // calls est_cluster once per contraction step, all on quotients of the
  // same host graph, so the engine and priority arrays warm once.
  EstClusterWorkspace ws;
  while (next < edges.size() || !active.empty()) {
    // Pull in the next weight bucket ([2^b, 2^{b+1})).
    if (next < edges.size()) {
      const double w0 = edges[next].w;
      const double cap = std::pow(2.0, std::floor(std::log2(w0)) + 1.0);
      while (next < edges.size() && edges[next].w < cap) active.push_back(edges[next++]);
    }
    // Contract until this bucket can no longer join components.
    bool progressed = true;
    while (progressed && !active.empty()) {
      progressed = false;
      // Build the quotient multigraph of active edges on DSU components.
      std::vector<vid> component_local(n, kNoVertex);
      std::vector<vid> locals;
      auto local_of = [&](vid c) {
        if (component_local[c] == kNoVertex) {
          component_local[c] = static_cast<vid>(locals.size());
          locals.push_back(c);
        }
        return component_local[c];
      };
      std::map<std::pair<vid, vid>, Edge> rep;
      std::vector<Edge> still_active;
      for (const Edge& e : active) {
        const vid cu = dsu.find(e.u), cv = dsu.find(e.v);
        if (cu == cv) continue;  // resolved
        still_active.push_back(e);
        vid a = local_of(cu), b = local_of(cv);
        if (a > b) std::swap(a, b);
        auto [it, inserted] = rep.try_emplace({a, b}, e);
        if (!inserted &&
            std::tie(e.w, e.u, e.v) < std::tie(it->second.w, it->second.u, it->second.v)) {
          it->second = e;
        }
      }
      active = std::move(still_active);
      if (rep.empty()) break;
      std::vector<Edge> qedges;
      qedges.reserve(rep.size());
      for (const auto& [key, orig] : rep) {
        (void)orig;
        qedges.push_back({key.first, key.second, 1.0});
      }
      const Graph quotient =
          Graph::from_edges(static_cast<vid>(locals.size()), std::move(qedges));
      const Clustering c = est_cluster(quotient, beta, seed + 1000 * iter, ws);
      ++iter;
      for (vid v = 0; v < quotient.num_vertices(); ++v) {
        const vid p = c.parent[v];
        if (p == kNoVertex) continue;
        vid a = v, b = p;
        if (a > b) std::swap(a, b);
        const Edge& orig = rep.at({a, b});
        if (dsu.unite(orig.u, orig.v)) {
          out.edges.push_back(orig);
          progressed = true;
        }
      }
    }
  }
  out.iterations = iter;
  return out;
}

TreeResult minimum_spanning_tree(const Graph& g) {
  TreeResult out;
  std::vector<Edge> edges = g.undirected_edges();
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.w, a.u, a.v) < std::tie(b.w, b.u, b.v);
  });
  Dsu dsu(g.num_vertices());
  for (const Edge& e : edges) {
    if (dsu.unite(e.u, e.v)) out.edges.push_back(e);
  }
  out.iterations = 1;
  return out;
}

TreeStretch tree_stretch(const Graph& g, const std::vector<Edge>& tree) {
  TreeStretch s;
  const Graph t = Graph::from_edges(g.num_vertices(), std::vector<Edge>(tree));
  double sum = 0;
  std::size_t count = 0;
  for (vid u = 0; u < g.num_vertices(); ++u) {
    if (g.degree(u) == 0) continue;
    const SsspResult sp = dijkstra(t, u);
    for (eid e = g.begin(u); e < g.end(u); ++e) {
      const vid v = g.target(e);
      if (v < u) continue;
      const double ratio = sp.dist[v] / g.weight(e);
      sum += ratio;
      s.maximum = std::max(s.maximum, ratio);
      ++count;
    }
  }
  s.average = count ? sum / static_cast<double>(count) : 0.0;
  return s;
}

bool is_spanning_forest(const Graph& g, const std::vector<Edge>& edges) {
  // Within g, acyclic, and as connective as g itself.
  Dsu dsu(g.num_vertices());
  for (const Edge& e : edges) {
    if (e.u >= g.num_vertices() || e.v >= g.num_vertices()) return false;
    bool in_g = false;
    for (eid a = g.begin(e.u); a < g.end(e.u); ++a) {
      if (g.target(a) == e.v && g.weight(a) == e.w) {
        in_g = true;
        break;
      }
    }
    if (!in_g) return false;
    if (!dsu.unite(e.u, e.v)) return false;  // cycle
  }
  // Spanning: same component count as g.
  const auto comp = connected_components(g);
  vid g_comps = 0;
  for (vid c : comp) g_comps = std::max(g_comps, c + 1);
  return edges.size() == static_cast<std::size_t>(g.num_vertices()) - g_comps;
}

}  // namespace parsh
