// Induced subgraphs and quotient (contracted) graphs.
//
// The hopset recursion (Algorithm 4) descends into induced subgraphs of
// small clusters; the weighted spanner (Algorithm 3) and the Appendix B
// weight decomposition contract components and continue on the quotient
// graph G/H (self loops removed, parallel edges merged keeping the
// shortest — Section 2's convention).
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace parsh {

/// An induced subgraph together with the mapping back to the host graph.
struct Subgraph {
  Graph graph;
  /// original_id[i] = host-graph vertex corresponding to local vertex i.
  std::vector<vid> original_id;
};

/// Induced subgraph on `vertices` (each < g.num_vertices(), no
/// duplicates). Local ids follow the order of `vertices`; a row that order
/// leaves unsorted is sorted. Built straight from the host rows, with no
/// edge-list sort.
Subgraph induced_subgraph(const Graph& g, const std::vector<vid>& vertices);

/// One induced subgraph per cluster, given a cluster label per vertex
/// (labels dense in [0, num_clusters); kNoVertex puts a vertex in no
/// cluster). Returns them ordered by label; local ids follow vertex order.
/// One pass over the labels and two over the members' host rows (count,
/// fill) with one shared local-id array — O(n + m) work total.
std::vector<Subgraph> induced_subgraphs_by_label(const Graph& g,
                                                 const std::vector<vid>& label,
                                                 vid num_clusters);

/// A quotient graph and the mapping from host vertices to quotient ids.
struct QuotientGraph {
  Graph graph;
  /// component[v] = quotient vertex of host vertex v.
  std::vector<vid> component;
};

/// Contract each label class of `label` (dense in [0, num_components)) to
/// a single vertex; drops intra-class edges and keeps the minimum-weight
/// edge between any two classes.
QuotientGraph quotient_graph(const Graph& g, const std::vector<vid>& label,
                             vid num_components);

}  // namespace parsh
