// Hierarchical weight-class decomposition (Lemma 5.1 / Appendix B).
//
// Edges are grouped into categories by powers of base = n/eps. For a
// query whose endpoints first become connected at category level j, only
// edges of categories j-1, j, j+1 matter: lighter edges can be contracted
// (they change any <=n-edge path by a factor <= eps) and heavier edges can
// never appear on the path. The decomposition therefore prepares, per
// level j, the quotient graph G[P_{q(j+1)}] / P_{q(j-1)} whose weight
// ratio is O((n/eps)^3) — making every level safe for the polynomial-
// ratio machinery of Section 5 — and maps each query to one level with a
// (1-eps)-approximation guarantee.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace parsh {

class WeightDecomposition {
 public:
  struct Level {
    Graph graph;                    ///< G[P_{q(j+1)}] / P_{q(j-1)}
    std::vector<vid> host_to_local; ///< host vertex -> quotient vertex
  };

  struct QueryTarget {
    std::size_t level = 0;
    vid s = kNoVertex;
    vid t = kNoVertex;
    bool connected = false;  ///< false if s,t are in different components of g
  };

  /// Build the decomposition. `eps` controls both the category base (n/eps)
  /// and the approximation loss.
  static WeightDecomposition build(const Graph& g, double eps);

  [[nodiscard]] std::size_t num_levels() const { return levels_.size(); }
  [[nodiscard]] const Level& level(std::size_t j) const { return levels_[j]; }

  /// Map an s-t query to the level whose quotient graph answers it.
  [[nodiscard]] QueryTarget map_query(vid s, vid t) const;

  /// Weight-ratio bound each level is guaranteed to satisfy (base^3).
  [[nodiscard]] double ratio_bound() const { return base_ * base_ * base_; }

 private:
  double base_ = 0;
  std::vector<Level> levels_;
  /// component_at_[j][v] = component of v using edges of category <= q(j).
  std::vector<std::vector<vid>> component_at_;
};

}  // namespace parsh
