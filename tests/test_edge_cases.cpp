// Edge-case and failure-path coverage for spots the main suites pass
// through only on their happy paths: file-based IO, sparse huge integer
// weights in the Dial engine, distance-limited hop searches, empty
// clusters in by-label subgraphs, and formatting corners.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/parsh.hpp"

namespace parsh {
namespace {

TEST(FileIo, EdgeListFileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "parsh_io_test.txt").string();
  const Graph g = with_uniform_weights(make_grid(5, 5), 1, 9, 3);
  write_edge_list_file(path, g);
  const Graph h = read_edge_list_file(path);
  EXPECT_EQ(h.undirected_edges(), g.undirected_edges());
  std::remove(path.c_str());
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/definitely/missing.txt"),
               std::runtime_error);
  EXPECT_THROW(read_dimacs_file("/nonexistent/definitely/missing.gr"),
               std::runtime_error);
}

TEST(FileIo, DimacsZeroIndexedIdsRejected) {
  std::stringstream ss("p sp 2 1\na 0 1 5\n");
  EXPECT_THROW(read_dimacs(ss), std::runtime_error);
}

TEST(DialEngine, SparseHugeIntegerWeights) {
  // Weights spanning six orders of magnitude: the map-backed buckets must
  // handle the sparsity without allocating the full range.
  const Graph g = Graph::from_edges(
      5, {{0, 1, 1}, {1, 2, 1000000}, {2, 3, 1}, {3, 4, 999983}});
  const auto r = weighted_bfs(g, 0);
  EXPECT_EQ(r.dist[4], 1 + 1000000 + 1 + 999983);
  const auto d = dijkstra(g, 0);
  for (vid v = 0; v < 5; ++v) EXPECT_EQ(r.dist[v], d.dist[v]);
  // Rounds = distinct settled distance values.
  EXPECT_EQ(r.rounds, 5u);
}

TEST(DialEngine, EstClusterWithHugeWeights) {
  const Graph g = Graph::from_edges(
      6, {{0, 1, 1}, {1, 2, 500000}, {2, 3, 1}, {3, 4, 1}, {4, 5, 700000}});
  const Clustering a = est_cluster(g, 0.3, 11);
  const Clustering b = est_cluster_reference(g, 0.3, 11);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_TRUE(validate_clustering(g, a));
}

TEST(HopLimited, DistLimitPrunesExactly) {
  const Graph g = make_path(30);
  const auto r = hop_limited_sssp(g, 0, 100, /*dist_limit=*/7.0);
  EXPECT_EQ(r.dist[7], 7);
  EXPECT_EQ(r.dist[8], kInfWeight);
  // Far fewer rounds than the unlimited search.
  EXPECT_LE(r.rounds, 9u);
}

TEST(HopLimited, DistLimitDoesNotBreakShorterPaths) {
  Graph g = make_path(10).with_extra_edges({{0, 9, 20}});
  // Limit admits the direct heavy edge but not longer-than-limit chains.
  const auto r = hop_limited_sssp(g, 0, 100, 20.0);
  EXPECT_EQ(r.dist[9], 9);  // path (weight 9) is under the limit and wins
}

TEST(SubgraphByLabel, EmptyClustersYieldEmptySubgraphs) {
  const Graph g = make_path(6);
  std::vector<vid> label{0, 0, 0, 2, 2, 2};  // label 1 unused
  const auto subs = induced_subgraphs_by_label(g, label, 3);
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[1].graph.num_vertices(), 0u);
  EXPECT_EQ(subs[0].graph.num_edges(), 2u);
  EXPECT_EQ(subs[2].graph.num_edges(), 2u);
}

TEST(Quotient, SelfQuotientIsIdentity) {
  const Graph g = with_uniform_weights(make_grid(4, 4), 1, 5, 2);
  std::vector<vid> label(g.num_vertices());
  for (vid v = 0; v < g.num_vertices(); ++v) label[v] = v;
  const QuotientGraph q = quotient_graph(g, label, g.num_vertices());
  EXPECT_EQ(q.graph.undirected_edges(), g.undirected_edges());
}

TEST(TableFormat, HandlesEmptyRowsAndZero) {
  Table t({"a", "b"});
  t.row().cell("x");  // short row: missing cell renders empty
  t.row().cell(0.0, 2).cell(static_cast<std::size_t>(0));
  const std::string s = t.to_string();
  EXPECT_NE(s.find("x"), std::string::npos);
  EXPECT_NE(s.find("0.00"), std::string::npos);
}

TEST(RoundingBound, MatchesLemma52Arithmetic) {
  // ceil(c k / zeta) for a few concrete values.
  EXPECT_DOUBLE_EQ(rounded_weight_bound(2.0, 10.0, 0.5), 40.0);
  EXPECT_DOUBLE_EQ(rounded_weight_bound(1.0, 7.0, 0.3), std::ceil(7.0 / 0.3));
}

TEST(WeightedSpanner, SingleEdgeGraph) {
  const Graph g = Graph::from_edges(2, {{0, 1, 17}});
  const SpannerResult r = weighted_spanner(g, 3.0, 1);
  ASSERT_EQ(r.edges.size(), 1u);
  EXPECT_EQ(r.edges[0].w, 17);
}

TEST(Hopset, TwoVertexGraphIsBaseCase) {
  const Graph g = Graph::from_edges(2, {{0, 1, 1}});
  EXPECT_TRUE(build_hopset(g, HopsetParams{}).edges.empty());
}

TEST(ApproxQuery, SingleEdgeGraphAnswersExactly) {
  const Graph g = Graph::from_edges(2, {{0, 1, 5}});
  const ApproxShortestPaths engine(g, {});
  const auto q = engine.query(0, 1);
  EXPECT_GE(q.estimate + 1e-9, 5.0);
  EXPECT_LE(q.estimate, 5.0 * 1.5);
}

TEST(WorkDepth, BenchRegionsIsolateAlgorithms) {
  // Two back-to-back regions measure only their own work.
  wd::reset();
  const Graph g = make_grid(20, 20);
  wd::Region r1;
  weighted_bfs(g, 0);
  const auto c1 = r1.delta();
  wd::Region r2;
  est_cluster(g, 0.5, 1);
  const auto c2 = r2.delta();
  EXPECT_GT(c1.work, 0u);
  EXPECT_GT(c2.work, 0u);
  EXPECT_GT(c1.rounds, 0u);
  EXPECT_GT(c2.rounds, 0u);
  const auto total = wd::snapshot();
  EXPECT_EQ(total.work, c1.work + c2.work);
}

TEST(Generators, ZeroAndOneVertexGraphs) {
  EXPECT_EQ(make_path(0).num_vertices(), 0u);
  EXPECT_EQ(make_path(1).num_edges(), 0u);
  EXPECT_EQ(make_cycle(2).num_edges(), 1u);  // degenerate cycle = edge
  EXPECT_EQ(make_complete(1).num_edges(), 0u);
  EXPECT_EQ(make_grid(1, 1).num_vertices(), 1u);
}

}  // namespace
}  // namespace parsh
