#include "hopset/weight_reduction.hpp"

#include <algorithm>
#include <cmath>

#include "graph/connectivity.hpp"

namespace parsh {

WeightDecomposition WeightDecomposition::build(const Graph& g, double eps) {
  WeightDecomposition d;
  const vid n = g.num_vertices();
  d.base_ = std::max(2.0, static_cast<double>(std::max<vid>(n, 2)) / eps);
  if (g.num_edges() == 0) return d;

  // Category of each arc: floor(log_base(w)), normalised so the lightest
  // edge sits in category 0.
  const weight_t min_w = g.min_weight();
  const double log_base = std::log(d.base_);
  auto category_of = [&](weight_t w) {
    return static_cast<int>(std::floor(std::log(w / min_w) / log_base + 1e-12));
  };
  std::vector<int> arc_cat(g.num_arcs());
  std::vector<int> cats;
  for (vid u = 0; u < n; ++u) {
    for (eid e = g.begin(u); e < g.end(u); ++e) {
      arc_cat[e] = category_of(g.weight(e));
      cats.push_back(arc_cat[e]);
    }
  }
  std::sort(cats.begin(), cats.end());
  cats.erase(std::unique(cats.begin(), cats.end()), cats.end());
  const std::size_t k = cats.size();  // non-empty categories q(0..k-1)

  // Components under each prefix P_{q(j)}.
  d.component_at_.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<char> keep(g.num_arcs());
    for (eid e = 0; e < g.num_arcs(); ++e) keep[e] = arc_cat[e] <= cats[j] ? 1 : 0;
    d.component_at_[j] = connected_components_filtered(g, keep);
  }

  // Level graphs: G[P_{q(j+1)}] / P_{q(j-1)}.
  d.levels_.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    Level& lv = d.levels_[j];
    // Contraction labels: components under P_{q(j-1)} (identity at j=0).
    std::vector<vid> contract(n);
    if (j == 0) {
      for (vid v = 0; v < n; ++v) contract[v] = v;
    } else {
      contract = d.component_at_[j - 1];
    }
    vid num_quot = 0;
    for (vid c : contract) num_quot = std::max(num_quot, c + 1);
    const int cat_hi = j + 1 < k ? cats[j + 1] : cats[j];
    // A query resolved at level j has its endpoints connected within
    // P_{q(j)}, so its distance is < n * base^{q(j)+1} (n-1 edges of the
    // heaviest in-prefix category). Heavier edges can never lie on such a
    // path and are dropped — this is what bounds the level's weight ratio
    // by base^2 <= base^3 even when non-empty categories have gaps.
    const weight_t weight_cap = static_cast<weight_t>(n) * min_w *
                                std::pow(d.base_, static_cast<double>(cats[j]) + 1.0);
    std::vector<Edge> qedges;
    for (vid u = 0; u < n; ++u) {
      for (eid e = g.begin(u); e < g.end(u); ++e) {
        const vid v = g.target(e);
        if (u >= v) continue;
        if (arc_cat[e] > cat_hi) continue;
        if (g.weight(e) > weight_cap) continue;
        const vid cu = contract[u], cv = contract[v];
        if (cu == cv) continue;  // contracted (or intra-component light edge)
        qedges.push_back({cu, cv, g.weight(e)});
      }
    }
    lv.graph = Graph::from_edges(num_quot, std::move(qedges));
    lv.host_to_local = std::move(contract);
  }
  return d;
}

WeightDecomposition::QueryTarget WeightDecomposition::map_query(vid s, vid t) const {
  QueryTarget q;
  if (component_at_.empty()) return q;
  // Smallest level j with s,t connected under P_{q(j)} (connectivity is
  // monotone in j, so binary search would work; the level count is tiny).
  for (std::size_t j = 0; j < component_at_.size(); ++j) {
    if (component_at_[j][s] == component_at_[j][t]) {
      q.level = j;
      q.s = levels_[j].host_to_local[s];
      q.t = levels_[j].host_to_local[t];
      q.connected = true;
      return q;
    }
  }
  return q;  // disconnected in g
}

}  // namespace parsh
