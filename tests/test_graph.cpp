// Tests for the CSR graph container: construction invariants, dedup and
// symmetrization rules, weight handling, derived copies, and I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "graph/digest.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "parallel/parallel_for.hpp"

namespace parsh {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_arcs(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.validate());
}

TEST(Graph, TriangleBasics) {
  const Graph g = Graph::from_edges(3, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}});
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_arcs(), 6u);
  for (vid v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_FALSE(g.weighted());
  EXPECT_TRUE(g.validate());
}

TEST(Graph, SelfLoopsDropped) {
  const Graph g = Graph::from_edges(3, {{0, 0, 1}, {1, 1, 5}, {0, 1, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.validate());
}

TEST(Graph, ParallelEdgesKeepMinWeight) {
  const Graph g = Graph::from_edges(2, {{0, 1, 5}, {0, 1, 2}, {1, 0, 9}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.weight(g.begin(0)), 2);
  EXPECT_TRUE(g.validate());
}

TEST(Graph, KeepParallelVariantKeepsThem) {
  const Graph g = Graph::from_edges_keep_parallel(2, {{0, 1, 5}, {0, 1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Graph, AdjacencySortedByTarget) {
  const Graph g = Graph::from_edges(5, {{0, 4, 1}, {0, 2, 1}, {0, 1, 1}, {0, 3, 1}});
  vid prev = 0;
  for (eid e = g.begin(0); e < g.end(0); ++e) {
    EXPECT_GE(g.target(e), prev);
    prev = g.target(e);
  }
}

TEST(Graph, UnweightedReportsWeightOne) {
  const Graph g = Graph::from_edges(2, {{0, 1, 1}});
  EXPECT_FALSE(g.weighted());
  EXPECT_EQ(g.weight(g.begin(0)), 1);
  EXPECT_EQ(g.min_weight(), 1);
  EXPECT_EQ(g.max_weight(), 1);
}

TEST(Graph, WeightedDetectedAndMinMax) {
  const Graph g = Graph::from_edges(3, {{0, 1, 4}, {1, 2, 10}});
  EXPECT_TRUE(g.weighted());
  EXPECT_EQ(g.min_weight(), 4);
  EXPECT_EQ(g.max_weight(), 10);
}

TEST(Graph, UndirectedEdgesReportsEachOnceOriented) {
  const Graph g = Graph::from_edges(4, {{2, 1, 3}, {0, 3, 7}});
  const auto edges = g.undirected_edges();
  ASSERT_EQ(edges.size(), 2u);
  for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
}

TEST(Graph, RoundTripThroughUndirectedEdges) {
  const Graph g = Graph::from_edges(6, {{0, 1, 2}, {1, 2, 3}, {3, 4, 1}, {4, 5, 8}});
  const Graph h = Graph::from_edges(6, g.undirected_edges());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(h.undirected_edges(), g.undirected_edges());
}

TEST(Graph, WithExtraEdgesMergesAndKeepsMin) {
  const Graph g = Graph::from_edges(3, {{0, 1, 5}});
  const Graph h = g.with_extra_edges({{1, 2, 4}, {0, 1, 2}});
  EXPECT_EQ(h.num_edges(), 2u);
  // The parallel (0,1) edge resolves to the lighter weight 2.
  weight_t w01 = 0;
  for (eid e = h.begin(0); e < h.end(0); ++e) {
    if (h.target(e) == 1) w01 = h.weight(e);
  }
  EXPECT_EQ(w01, 2);
  EXPECT_TRUE(h.validate());
}

TEST(Graph, MapWeightsTransformsEveryArc) {
  const Graph g = Graph::from_edges(3, {{0, 1, 3}, {1, 2, 5}});
  const Graph h = g.map_weights([](weight_t w) { return w * 2; });
  EXPECT_EQ(h.min_weight(), 6);
  EXPECT_EQ(h.max_weight(), 10);
  EXPECT_TRUE(h.validate());
}

TEST(Graph, AsUnweightedDropsWeights) {
  const Graph g = Graph::from_edges(3, {{0, 1, 3}, {1, 2, 5}});
  const Graph h = g.as_unweighted();
  EXPECT_FALSE(h.weighted());
  EXPECT_EQ(h.num_edges(), 2u);
  EXPECT_EQ(h.weight(h.begin(0)), 1);
}

TEST(Graph, IsolatedVerticesAllowed) {
  const Graph g = Graph::from_edges(10, {{0, 1, 1}});
  EXPECT_EQ(g.num_vertices(), 10u);
  for (vid v = 2; v < 10; ++v) EXPECT_EQ(g.degree(v), 0u);
  EXPECT_TRUE(g.validate());
}

TEST(GraphIo, EdgeListRoundTrip) {
  const Graph g = Graph::from_edges(5, {{0, 1, 2.5}, {1, 2, 1}, {3, 4, 7}});
  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph h = read_edge_list(ss);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.undirected_edges(), g.undirected_edges());
}

TEST(GraphIo, DimacsParsesHeaderCommentsAndArcs) {
  std::stringstream ss;
  ss << "c a comment line\n"
     << "p sp 4 3\n"
     << "a 1 2 5\n"
     << "a 2 3 1\n"
     << "a 3 4 2\n";
  const Graph g = read_dimacs(ss);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.weighted());
  EXPECT_TRUE(g.validate());
}

TEST(GraphIo, BadHeaderThrows) {
  std::stringstream ss("garbage");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
}

// Every malformed-input failure carries the 1-based line number where
// parsing stopped (IoError), so a bad dataset is diagnosable without
// bisecting the file by hand.

TEST(GraphIo, MalformedEdgeLineReportsLineNumber) {
  std::stringstream ss("3 2\n0 1 1.5\n0 two 1\n");
  try {
    (void)read_edge_list(ss);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(GraphIo, OutOfRangeVertexIdRejected) {
  std::stringstream ss("3 1\n0 7 1\n");
  try {
    (void)read_edge_list(ss);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(GraphIo, NegativeVertexIdRejectedNotWrapped) {
  // Stream extraction into uint32 would wrap "-1" to 4294967295; the
  // strict parser rejects the sign outright.
  std::stringstream ss("3 1\n-1 2 1\n");
  EXPECT_THROW(read_edge_list(ss), IoError);
}

TEST(GraphIo, BadWeightsRejected) {
  const char* cases[] = {
      "2 1\n0 1 -3\n",     // negative
      "2 1\n0 1 0\n",      // zero
      "2 1\n0 1 1e999\n",  // overflows double
      "2 1\n0 1 nope\n",   // garbage
      "2 1\n0 1 inf\n",    // non-finite
  };
  for (const char* c : cases) {
    std::stringstream ss(c);
    EXPECT_THROW(read_edge_list(ss), IoError) << c;
  }
}

TEST(GraphIo, TruncatedFileReportsDeclaredVsActual) {
  std::stringstream ss("4 3\n0 1 1\n1 2 1\n");
  try {
    (void)read_edge_list(ss);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos);
    EXPECT_NE(what.find('3'), std::string::npos);
    EXPECT_NE(what.find('2'), std::string::npos);
  }
}

TEST(GraphIo, TrailingDataRejected) {
  std::stringstream ss("2 1\n0 1 1\n0 1 2\n");
  EXPECT_THROW(read_edge_list(ss), IoError);
}

TEST(GraphIo, DimacsMalformedLinesReportLineNumbers) {
  // Arc before problem line.
  {
    std::stringstream ss("a 1 2 1\n");
    EXPECT_THROW(read_dimacs(ss), IoError);
  }
  // Unknown line kind.
  {
    std::stringstream ss("p sp 2 1\nq what\na 1 2 1\n");
    try {
      (void)read_dimacs(ss);
      FAIL() << "expected IoError";
    } catch (const IoError& e) {
      EXPECT_EQ(e.line(), 2u);
    }
  }
  // Out-of-range 1-indexed id.
  {
    std::stringstream ss("p sp 2 1\na 1 3 1\n");
    EXPECT_THROW(read_dimacs(ss), IoError);
  }
  // Truncated: fewer arcs than the problem line declared.
  {
    std::stringstream ss("p sp 3 2\na 1 2 1\n");
    EXPECT_THROW(read_dimacs(ss), IoError);
  }
}

TEST(GraphIo, StrictReaderStillRoundTrips) {
  const Graph g = Graph::from_edges(6, {{0, 1, 0.25}, {2, 3, 1e9}, {4, 5, 1}});
  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph h = read_edge_list(ss);
  EXPECT_EQ(h.undirected_edges(), g.undirected_edges());
}

// The CSR build (sort + boundary-detected offsets + first-of-group dedup)
// is parallel; its output must be a pure function of the edge list, not
// the worker count or schedule. Stress it with the adversarial cases the
// dedup rules cover: duplicates in both orientations, self loops, weight
// ties, and hub-heavy degree skew.
TEST(Graph, FromEdgesBitIdenticalAcrossThreadCounts) {
  std::vector<Edge> edges;
  const vid n = 1000;
  std::uint64_t x = 12345;
  for (int i = 0; i < 8000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const vid u = static_cast<vid>((x >> 33) % n);
    const vid v = i % 5 == 0 ? u : static_cast<vid>((x >> 13) % n);  // self loops
    const auto w = static_cast<weight_t>(1 + (x % 7));
    edges.push_back(i % 3 == 0 ? Edge{v, u, w} : Edge{u, v, w});  // both orientations
    if (i % 4 == 0) edges.push_back({u % 8, v, w + 1});  // hubs + duplicates
  }
  auto build = [&] { return Graph::from_edges(n, edges); };
  auto run_at = [&](int threads) {
    const int before = num_workers();
    set_num_workers(threads);
    Graph g = build();
    set_num_workers(before);
    return g;
  };
  const Graph one = run_at(1);
  const Graph many = run_at(4);
  ASSERT_EQ(one.num_arcs(), many.num_arcs());
  const GraphStorage& a = one.storage();
  const GraphStorage& b = many.storage();
  EXPECT_TRUE(std::equal(a.offsets.begin(), a.offsets.end(), b.offsets.begin()));
  EXPECT_TRUE(std::equal(a.targets.begin(), a.targets.end(), b.targets.begin()));
  EXPECT_TRUE(std::equal(a.weights.begin(), a.weights.end(), b.weights.begin()));
  EXPECT_TRUE(one.validate());
}

// with_extra_edges and prune_heavier_than build from the sorted rows in
// linear work; each must equal the graph from_edges builds from the same
// edges, weighted flag included, at every worker count. The hosts cover
// the row shapes the builders walk: weighted, unit-weight, parallel arcs
// (from_edges_keep_parallel) and compressed adjacency. 3000 vertices put
// the row passes above the parallel grain at width 4.
std::vector<Edge> random_edges(vid n, int m, std::uint64_t seed, int max_w) {
  std::vector<Edge> edges;
  std::uint64_t x = seed;
  for (int i = 0; i < m; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const vid u = static_cast<vid>((x >> 33) % n);
    const vid v = static_cast<vid>((x >> 13) % n);
    edges.push_back({u, v, static_cast<weight_t>(1 + (x >> 7) % max_w)});
  }
  return edges;
}

std::vector<std::pair<const char*, Graph>> derive_hosts() {
  const vid n = 3000;
  const Graph weighted = Graph::from_edges(n, random_edges(n, 12000, 7, 9));
  std::vector<Edge> parallel = random_edges(n, 12000, 8, 5);
  for (std::size_t i = 0; i < parallel.size(); i += 3) {
    parallel.push_back({parallel[i].v, parallel[i].u, parallel[i].w + 2});
    parallel.push_back({parallel[i].u, parallel[i].v, 1});
  }
  return {{"weighted", weighted},
          {"unit", Graph::from_edges(n, random_edges(n, 12000, 9, 1))},
          {"parallel", Graph::from_edges_keep_parallel(n, parallel)},
          {"compressed", weighted.compress_adjacency()}};
}

void expect_same_graph(const Graph& got, const Graph& want, const std::string& what) {
  EXPECT_EQ(got.num_vertices(), want.num_vertices()) << what;
  EXPECT_EQ(got.weighted(), want.weighted()) << what;
  EXPECT_EQ(graph_digest(got), graph_digest(want)) << what;
  EXPECT_TRUE(got.validate()) << what;
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

TEST(Graph, PruneHeavierThanMatchesFromEdges) {
  for (const auto& [name, g] : derive_hosts()) {
    for (weight_t cap : {0.5, 1.0, 3.0, 4.5, 100.0}) {
      std::vector<Edge> kept;
      for (const Edge& e : g.undirected_edges()) {
        if (e.w <= cap) kept.push_back(e);
      }
      const Graph want = Graph::from_edges(g.num_vertices(), kept);
      at_widths([&](int width) {
        expect_same_graph(g.prune_heavier_than(cap), want,
                          std::string(name) + " cap " + std::to_string(cap) +
                              " width " + std::to_string(width));
      });
    }
  }
}

TEST(Graph, WithExtraEdgesMatchesFromEdges) {
  for (const auto& [name, g] : derive_hosts()) {
    const std::vector<Edge> host = g.undirected_edges();
    // Extras against existing edges: lighter, heavier, equal, reversed,
    // duplicated; plus self loops and fresh edges.
    std::vector<Edge> extra;
    for (std::size_t i = 0; i < host.size(); i += 97) {
      const Edge& e = host[i];
      extra.push_back({e.u, e.v, e.w > 1 ? e.w - 1 : e.w});
      extra.push_back({e.v, e.u, e.w + 1});
      extra.push_back({e.u, e.v, e.w});
      extra.push_back({e.v, e.u, e.w});
      extra.push_back({e.u, e.u, 3});
    }
    const std::vector<Edge> fresh = random_edges(g.num_vertices(), 300, 11, 4);
    extra.insert(extra.end(), fresh.begin(), fresh.end());
    std::vector<Edge> unit;
    for (const Edge& e : extra) unit.push_back({e.u, e.v, 1});
    for (const auto& [kind, xs] :
         {std::pair{"mixed", extra}, std::pair{"unit", unit},
          std::pair{"none", std::vector<Edge>{}}}) {
      std::vector<Edge> all = host;
      all.insert(all.end(), xs.begin(), xs.end());
      Graph want = Graph::from_edges(g.num_vertices(), all);
      bool weighted = g.weighted();
      for (const Edge& e : xs) weighted = weighted || e.w != 1;
      if (weighted && !want.weighted()) want = want.map_weights([](weight_t w) { return w; });
      at_widths([&](int width) {
        expect_same_graph(g.with_extra_edges(xs), want,
                          std::string(name) + " + " + kind + " width " +
                              std::to_string(width));
      });
    }
  }
}

TEST(Graph, WithExtraEdgesOnUnitHostKeepsUnitWeights) {
  const Graph g = Graph::from_edges(4, {{0, 1, 1}, {1, 2, 1}});
  EXPECT_FALSE(g.with_extra_edges({{2, 3, 1}, {3, 3, 1}}).weighted());
  // A self loop's weight still counts toward the weighted flag.
  EXPECT_TRUE(g.with_extra_edges({{2, 3, 1}, {3, 3, 2}}).weighted());
}

}  // namespace
}  // namespace parsh
