// Cross-topology sweeps: run the core invariants over the full generator
// portfolio. Different topologies stress different code paths — star
// (degree-n hubs), hypercube (log-diameter), barbell (bottlenecks),
// caterpillar (pendant leaves), random-regular (expanders), geometric
// (weighted mesh) — so each combination is a distinct behaviour check,
// not a repetition.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/cluster_stats.hpp"
#include "cluster/est_cluster.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "spanner/spanner.hpp"
#include "spanner/verify.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/weighted_bfs.hpp"

namespace parsh {
namespace {

Graph topology(int which, std::uint64_t seed) {
  switch (which) {
    case 0: return make_star(300);
    case 1: return make_hypercube(9);
    case 2: return make_barbell(20, 30);
    case 3: return make_caterpillar(60, 4);
    case 4: return ensure_connected(make_random_regular(300, 5, seed));
    case 5: return ensure_connected(make_geometric(400, 0.08, seed));
    case 6: return ensure_connected(make_rmat(512, 2048, seed));
    default: return make_torus(17, 19);
  }
}

class TopologySweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(TopologySweep, EstClusterEngineMatchesOracle) {
  const auto [which, seed] = GetParam();
  const Graph g = topology(which, seed);
  for (double beta : {0.2, 0.7}) {
    const Clustering a = est_cluster(g, beta, seed + 5);
    const Clustering b = est_cluster_reference(g, beta, seed + 5);
    ASSERT_EQ(a.cluster_of, b.cluster_of) << "which=" << which << " beta=" << beta;
    ASSERT_EQ(a.center, b.center);
    ASSERT_EQ(a.dist_to_center, b.dist_to_center);
    EXPECT_TRUE(validate_clustering(g, a));
  }
}

TEST_P(TopologySweep, SpannerInvariantsHold) {
  const auto [which, seed] = GetParam();
  const Graph g = topology(which, seed);
  const SpannerResult r =
      g.weighted() ? weighted_spanner(g, 3.0, seed) : unweighted_spanner(g, 3.0, seed);
  EXPECT_TRUE(is_subgraph(g, r.edges)) << which;
  // Connectivity of every component is preserved.
  EXPECT_EQ(num_components(spanner_graph(g, r.edges)), num_components(g)) << which;
  EXPECT_LE(r.edges.size(), g.num_edges()) << which;
}

TEST_P(TopologySweep, WeightedBfsAgreesWithDijkstraOnUnitGraphs) {
  const auto [which, seed] = GetParam();
  const Graph g = topology(which, seed);
  if (g.weighted()) GTEST_SKIP() << "unit-weight check";
  const auto b = weighted_bfs(g, 0);
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(b.dist, d.dist);
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, TopologySweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(TopologyEdgeCases, StarClustersHubCorrectly) {
  // On a star, either the hub's shift dominates (one cluster) or leaves
  // peel off as singletons; both are valid partitions — verify structure
  // across seeds.
  const Graph g = make_star(100);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Clustering c = est_cluster(g, 0.5, seed);
    EXPECT_TRUE(validate_clustering(g, c)) << seed;
    // Every non-hub cluster is a singleton (leaves only connect to 0).
    const auto members = c.members();
    for (vid i = 0; i < c.num_clusters; ++i) {
      if (c.center[i] == 0) continue;
      bool contains_hub = false;
      for (vid v : members[i]) contains_hub |= (v == 0);
      if (!contains_hub) {
        EXPECT_EQ(members[i].size(), 1u) << "cluster " << i << " seed " << seed;
      }
    }
  }
}

TEST(TopologyEdgeCases, HypercubeSpannerKeepsLogDiameter) {
  // Hypercubes have diameter log n; spanner stretch O(k) keeps the
  // spanner's diameter within a k factor.
  const Graph g = make_hypercube(8);
  const SpannerResult r = unweighted_spanner(g, 2.0, 3);
  const Graph h = spanner_graph(g, r.edges);
  const auto far = weighted_bfs(h, 0);
  weight_t diameter = 0;
  for (vid v = 0; v < h.num_vertices(); ++v) {
    ASSERT_NE(far.dist[v], kInfWeight);
    diameter = std::max(diameter, far.dist[v]);
  }
  EXPECT_LE(diameter, 8.0 * (6 * 2 + 1));
}

TEST(TopologyEdgeCases, BarbellBridgeSurvivesEverySpanner) {
  // The bridge path is the only connection — every spanner must keep all
  // of it.
  const Graph g = make_barbell(15, 10);
  const SpannerResult r = unweighted_spanner(g, 4.0, 7);
  const Graph h = spanner_graph(g, r.edges);
  EXPECT_EQ(num_components(h), 1u);
  // Bridge interior vertices have degree 2 in g; both edges must stay.
  for (vid v = 15; v < 25; ++v) EXPECT_EQ(h.degree(v), 2u) << v;
}

TEST(TopologyEdgeCases, CaterpillarLeavesGetForestEdges) {
  // Leaves have one edge each; the spanner must include every leaf edge
  // (tree edges cannot be dropped).
  const Graph g = make_caterpillar(40, 3);
  const SpannerResult r = unweighted_spanner(g, 3.0, 5);
  EXPECT_EQ(r.edges.size(), g.num_edges());
}

}  // namespace
}  // namespace parsh
