// Tests for induced subgraphs, per-label subgraphs and quotient graphs —
// the machinery the hopset recursion and Algorithm 3 contraction run on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graph/connectivity.hpp"
#include "graph/digest.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "parallel/parallel_for.hpp"
#include "sssp/dijkstra.hpp"

namespace parsh {
namespace {

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
  // Path 0-1-2-3-4, take {1,2,3}.
  const Graph g = make_path(5);
  const Subgraph s = induced_subgraph(g, {1, 2, 3});
  EXPECT_EQ(s.graph.num_vertices(), 3u);
  EXPECT_EQ(s.graph.num_edges(), 2u);
  EXPECT_EQ(s.original_id, (std::vector<vid>{1, 2, 3}));
}

TEST(InducedSubgraph, LocalIdsFollowInputOrder) {
  const Graph g = make_complete(5);
  const Subgraph s = induced_subgraph(g, {4, 0, 2});
  EXPECT_EQ(s.original_id[0], 4u);
  EXPECT_EQ(s.original_id[1], 0u);
  EXPECT_EQ(s.original_id[2], 2u);
  EXPECT_EQ(s.graph.num_edges(), 3u);  // triangle among the three
}

TEST(InducedSubgraph, PreservesWeights) {
  const Graph g = Graph::from_edges(4, {{0, 1, 5}, {1, 2, 7}, {2, 3, 9}});
  const Subgraph s = induced_subgraph(g, {1, 2});
  ASSERT_EQ(s.graph.num_edges(), 1u);
  EXPECT_EQ(s.graph.undirected_edges()[0].w, 7);
}

TEST(InducedSubgraph, EmptySelection) {
  const Graph g = make_path(5);
  const Subgraph s = induced_subgraph(g, {});
  EXPECT_EQ(s.graph.num_vertices(), 0u);
}

TEST(InducedSubgraph, DistancesNeverShrink) {
  // Distances within an induced subgraph are >= host distances.
  const Graph g = make_grid(6, 6);
  std::vector<vid> sel;
  for (vid v = 0; v < 36; v += 2) sel.push_back(v);
  const Subgraph s = induced_subgraph(g, sel);
  const SsspResult host = dijkstra(g, sel[0]);
  const SsspResult sub = dijkstra(s.graph, 0);
  for (vid i = 0; i < s.graph.num_vertices(); ++i) {
    if (sub.dist[i] == kInfWeight) continue;
    EXPECT_GE(sub.dist[i], host.dist[s.original_id[i]]);
  }
}

TEST(InducedSubgraphsByLabel, PartitionCoversAllVertices) {
  const Graph g = make_grid(5, 5);
  std::vector<vid> label(25);
  for (vid v = 0; v < 25; ++v) label[v] = v % 3;
  const auto subs = induced_subgraphs_by_label(g, label, 3);
  ASSERT_EQ(subs.size(), 3u);
  std::size_t total = 0;
  for (const auto& s : subs) total += s.graph.num_vertices();
  EXPECT_EQ(total, 25u);
  // Every original id carries the right label.
  for (vid c = 0; c < 3; ++c) {
    for (vid ov : subs[c].original_id) EXPECT_EQ(label[ov], c);
  }
}

TEST(QuotientGraph, ContractsTriangleToPoint) {
  const Graph g = Graph::from_edges(4, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {2, 3, 5}});
  std::vector<vid> label{0, 0, 0, 1};
  const QuotientGraph q = quotient_graph(g, label, 2);
  EXPECT_EQ(q.graph.num_vertices(), 2u);
  EXPECT_EQ(q.graph.num_edges(), 1u);
  EXPECT_EQ(q.graph.undirected_edges()[0].w, 5);
}

TEST(QuotientGraph, ParallelEdgesKeepShortest) {
  // Two components joined by edges of weight 9 and 3.
  const Graph g = Graph::from_edges(4, {{0, 1, 1}, {2, 3, 1}, {0, 2, 9}, {1, 3, 3}});
  std::vector<vid> label{0, 0, 1, 1};
  const QuotientGraph q = quotient_graph(g, label, 2);
  ASSERT_EQ(q.graph.num_edges(), 1u);
  EXPECT_EQ(q.graph.undirected_edges()[0].w, 3);
}

TEST(QuotientGraph, QuotientDistancesLowerBoundHostDistances) {
  // dist_quotient(c(u), c(v)) <= dist_host(u, v): contraction only helps.
  const Graph g = with_uniform_weights(make_grid(5, 5), 1, 6, 3);
  std::vector<vid> label(25);
  for (vid v = 0; v < 25; ++v) label[v] = v / 5;  // contract rows
  const QuotientGraph q = quotient_graph(g, label, 5);
  const SsspResult host = dijkstra(g, 0);
  const SsspResult quot = dijkstra(q.graph, label[0]);
  for (vid v = 0; v < 25; ++v) {
    if (host.dist[v] == kInfWeight) continue;
    EXPECT_LE(quot.dist[label[v]], host.dist[v]) << v;
  }
}

TEST(QuotientGraph, ComponentsFromConnectivityContractToSinglePoints) {
  const Graph g = make_random_graph(200, 150, 17);  // likely disconnected
  const auto comp = connected_components(g);
  vid k = 0;
  for (vid c : comp) k = std::max(k, c + 1);
  const QuotientGraph q = quotient_graph(g, comp, k);
  EXPECT_EQ(q.graph.num_vertices(), k);
  EXPECT_EQ(q.graph.num_edges(), 0u);  // no edges between components
}

// The induced-subgraph builders walk the host rows in linear work; each
// result must equal the graph from_edges builds from the subgraph's edges
// (weighted flag included) at every worker count.
Subgraph induced_reference(const Graph& g, const std::vector<vid>& vertices) {
  std::vector<vid> local(g.num_vertices(), kNoVertex);
  for (std::size_t i = 0; i < vertices.size(); ++i) local[vertices[i]] = static_cast<vid>(i);
  std::vector<Edge> edges;
  for (vid u_local = 0; u_local < vertices.size(); ++u_local) {
    const vid u = vertices[u_local];
    g.for_arcs(u, 0, g.degree(u), [](vid) {}, [&](eid e, vid v) {
      const vid v_local = local[v];
      if (v_local != kNoVertex && v_local > u_local) {
        edges.push_back({u_local, v_local, g.weight(e)});
      }
    });
  }
  return {Graph::from_edges(static_cast<vid>(vertices.size()), std::move(edges)), vertices};
}

void expect_same_subgraph(const Subgraph& got, const Subgraph& want, const std::string& what) {
  EXPECT_EQ(got.original_id, want.original_id) << what;
  EXPECT_EQ(got.graph.num_vertices(), want.graph.num_vertices()) << what;
  EXPECT_EQ(got.graph.weighted(), want.graph.weighted()) << what;
  EXPECT_EQ(graph_digest(got.graph), graph_digest(want.graph)) << what;
  EXPECT_TRUE(got.graph.validate()) << what;
}

template <typename F>
void at_widths(F f) {
  const int before = num_workers();
  for (int width : {1, 4}) {
    set_num_workers(width);
    f(width);
  }
  set_num_workers(before);
}

/// Hosts with 3000 vertices (above the parallel grain at width 4):
/// weighted, with parallel arcs, and compressed. Edges touching a vertex
/// divisible by 5 weigh 2..4, the rest 1, so a selection avoiding those
/// vertices induces an all-unit subgraph of a weighted host.
std::vector<std::pair<const char*, Graph>> induced_hosts() {
  const vid n = 3000;
  std::vector<Edge> edges;
  std::uint64_t x = 99;
  for (int i = 0; i < 15000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const vid u = static_cast<vid>((x >> 33) % n);
    const vid v = static_cast<vid>((x >> 13) % n);
    const bool heavy = u % 5 == 0 || v % 5 == 0;
    edges.push_back({u, v, heavy ? static_cast<weight_t>(2 + (x >> 7) % 3) : 1});
  }
  std::vector<Edge> parallel = edges;
  for (std::size_t i = 0; i < edges.size(); i += 4) {
    parallel.push_back({edges[i].v, edges[i].u, edges[i].w + 3});
  }
  const Graph weighted = Graph::from_edges(n, edges);
  return {{"weighted", weighted},
          {"parallel", Graph::from_edges_keep_parallel(n, parallel)},
          {"compressed", weighted.compress_adjacency()}};
}

TEST(InducedSubgraph, MatchesFromEdgesReference) {
  for (const auto& [name, g] : induced_hosts()) {
    const vid n = g.num_vertices();
    std::vector<vid> sorted, shuffled, unit;
    for (vid v = 0; v < n; ++v) {
      if (v % 4 != 3) sorted.push_back(v);
      if (v % 5 != 0) unit.push_back(v);
    }
    shuffled = sorted;
    std::uint64_t x = 5;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(shuffled[i - 1], shuffled[(x >> 33) % i]);
    }
    for (const auto& [kind, vs] :
         {std::pair{"sorted", sorted}, std::pair{"shuffled", shuffled},
          std::pair{"unit", unit}, std::pair{"empty", std::vector<vid>{}}}) {
      const Subgraph want = induced_reference(g, vs);
      at_widths([&](int width) {
        expect_same_subgraph(induced_subgraph(g, vs), want,
                             std::string(name) + " " + kind + " width " + std::to_string(width));
      });
    }
  }
}

TEST(InducedSubgraph, AllUnitSelectionOfWeightedHostIsUnweighted) {
  const Graph g = Graph::from_edges(4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 5}});
  EXPECT_TRUE(g.weighted());
  EXPECT_FALSE(induced_subgraph(g, {0, 1, 2}).graph.weighted());
  EXPECT_TRUE(induced_subgraph(g, {1, 2, 3}).graph.weighted());
}

TEST(InducedSubgraphsByLabel, EqualsPerClusterInducedSubgraph) {
  for (const auto& [name, g] : induced_hosts()) {
    const vid n = g.num_vertices();
    // Seven clusters, one empty, and every eleventh vertex in none.
    const vid k = 7;
    std::vector<vid> label(n);
    for (vid v = 0; v < n; ++v) label[v] = v % 11 == 0 ? kNoVertex : (v * 7919u) % 6;
    at_widths([&](int width) {
      const std::vector<Subgraph> subs = induced_subgraphs_by_label(g, label, k);
      ASSERT_EQ(subs.size(), k);
      for (vid c = 0; c < k; ++c) {
        std::vector<vid> members;
        for (vid v = 0; v < n; ++v) {
          if (label[v] == c) members.push_back(v);
        }
        const std::string what =
            std::string(name) + " cluster " + std::to_string(c) + " width " + std::to_string(width);
        expect_same_subgraph(subs[c], induced_subgraph(g, members), what);
        expect_same_subgraph(subs[c], induced_reference(g, members), what);
      }
    });
  }
}

}  // namespace
}  // namespace parsh
