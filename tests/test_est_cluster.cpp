// Tests for exponential start time clustering (Algorithm 1): structural
// validity, exact agreement between the parallel engine and the
// sequential Dijkstra oracle, and the probabilistic laws of Lemma 2.1,
// Lemma 2.2 / Corollary 3.1 and Corollary 2.3.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>

#include "cluster/cluster_stats.hpp"
#include "cluster/est_cluster.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "random/rng.hpp"
#include "thread_scope.hpp"

namespace parsh {
namespace {

TEST(EstCluster, EveryVertexAssignedExactlyOneCluster) {
  const Graph g = make_grid(10, 10);
  const Clustering c = est_cluster(g, 0.4, 1);
  ASSERT_EQ(c.cluster_of.size(), 100u);
  for (vid v = 0; v < 100; ++v) EXPECT_LT(c.cluster_of[v], c.num_clusters);
  std::size_t total = 0;
  for (const auto& m : c.members()) total += m.size();
  EXPECT_EQ(total, 100u);
}

TEST(EstCluster, StructurallyValidOnVariousGraphs) {
  for (const Graph& g : {make_path(64), make_grid(8, 8), make_cycle(33),
                         make_binary_tree(63), make_star(40)}) {
    const Clustering c = est_cluster(g, 0.5, 7);
    EXPECT_TRUE(validate_clustering(g, c));
  }
}

TEST(EstCluster, ValidOnWeightedGraphs) {
  const Graph g = with_uniform_weights(make_grid(9, 9), 1, 7, 3);
  const Clustering c = est_cluster(g, 0.3, 9);
  EXPECT_TRUE(validate_clustering(g, c));
}

TEST(EstCluster, DeterministicInSeed) {
  const Graph g = make_grid(12, 12);
  const Clustering a = est_cluster(g, 0.4, 42);
  const Clustering b = est_cluster(g, 0.4, 42);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_EQ(a.center, b.center);
  EXPECT_EQ(a.parent, b.parent);
  const Clustering c = est_cluster(g, 0.4, 43);
  EXPECT_NE(a.cluster_of, c.cluster_of);  // overwhelmingly likely
}

TEST(EstCluster, SingleVertexAndEmptyGraphs) {
  const Clustering c1 = est_cluster(Graph::from_edges(1, {}), 0.5, 1);
  EXPECT_EQ(c1.num_clusters, 1u);
  const Clustering c0 = est_cluster(Graph(), 0.5, 1);
  EXPECT_EQ(c0.num_clusters, 0u);
}

TEST(EstCluster, DisconnectedGraphClustersEachComponent) {
  const Graph g = Graph::from_edges(6, {{0, 1, 1}, {2, 3, 1}, {4, 5, 1}});
  const Clustering c = est_cluster(g, 0.5, 5);
  EXPECT_TRUE(validate_clustering(g, c));
  // No cluster can span components.
  for (vid v = 0; v < 6; v += 2) {
    EXPECT_TRUE(c.cluster_of[v] == c.cluster_of[v + 1] ||
                c.cluster_of[v] != c.cluster_of[(v + 2) % 6]);
  }
}

class EngineVsOracle
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(EngineVsOracle, ParallelEngineMatchesDijkstraOracle) {
  // The round-synchronous engine computes the exact argmin clustering;
  // it must agree with the sequential super-source Dijkstra on the same
  // draws — same centers, same assignment, same tree distances.
  const auto [which, seed] = GetParam();
  Graph g;
  switch (which) {
    case 0: g = make_grid(9, 11); break;
    case 1: g = make_path(120); break;
    case 2: g = ensure_connected(make_random_graph(150, 450, seed + 10)); break;
    default: g = with_uniform_weights(make_grid(7, 13), 1, 5, seed + 4); break;
  }
  for (double beta : {0.15, 0.6}) {
    const Clustering a = est_cluster(g, beta, seed);
    const Clustering b = est_cluster_reference(g, beta, seed);
    EXPECT_EQ(a.cluster_of, b.cluster_of) << "beta=" << beta;
    EXPECT_EQ(a.center, b.center) << "beta=" << beta;
    EXPECT_EQ(a.dist_to_center, b.dist_to_center) << "beta=" << beta;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineVsOracle,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values<std::uint64_t>(1, 2, 3)));

class EngineVsOracleRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineVsOracleRandom, MatchesOracleOnRandomGraphs) {
  // Random topologies, unweighted and with integer weights (including
  // weights past the engine's calendar span, exercising overflow).
  const std::uint64_t seed = GetParam();
  const Graph base = ensure_connected(make_random_graph(220, 700, seed + 50));
  for (const Graph& g :
       {base, with_uniform_weights(base, 1, 6, seed + 7),
        with_uniform_weights(base, 1, 400, seed + 13),
        with_uniform_weights(make_rmat(200, 800, seed + 21), 1, 9, seed + 3)}) {
    for (double beta : {0.1, 0.45}) {
      const Clustering a = est_cluster(g, beta, seed);
      const Clustering b = est_cluster_reference(g, beta, seed);
      // parent is not compared: equal-key ties (two equal-length tree
      // paths from the same center) are broken differently by the oracle's
      // priority queue, and both parents are valid — validate_clustering
      // checks the forest instead.
      EXPECT_EQ(a.cluster_of, b.cluster_of) << "beta=" << beta;
      EXPECT_EQ(a.center, b.center) << "beta=" << beta;
      EXPECT_EQ(a.dist_to_center, b.dist_to_center) << "beta=" << beta;
      EXPECT_TRUE(validate_clustering(g, a));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineVsOracleRandom,
                         ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5));

TEST(EstCluster, DeterministicAcrossThreadCounts) {
  // The round engine's priority writes are schedule-independent: the
  // clustering must be bit-identical at 1 worker and at many.
  const Graph g = with_uniform_weights(
      ensure_connected(make_random_graph(400, 1600, 11)), 1, 5, 17);
  Clustering one, many;
  const int before = num_workers();
  set_num_workers(1);
  one = est_cluster(g, 0.3, 123);
  set_num_workers(std::max(4, before));
  many = est_cluster(g, 0.3, 123);
  set_num_workers(before);
  EXPECT_EQ(one.cluster_of, many.cluster_of);
  EXPECT_EQ(one.center, many.center);
  EXPECT_EQ(one.parent, many.parent);
  EXPECT_EQ(one.dist_to_center, many.dist_to_center);
}

TEST(EstClusterWorkspace, ReusedAcrossGraphsMatchesFreshRuns) {
  // One workspace across a sequence of different graphs must behave as if
  // each call had fresh state (no leakage through the reused arrays).
  EstClusterWorkspace ws;
  std::vector<Graph> graphs;
  graphs.push_back(ensure_connected(make_random_graph(300, 900, 1)));
  graphs.push_back(make_grid(9, 9));  // smaller: arrays shrink logically
  graphs.push_back(with_uniform_weights(make_random_graph(200, 500, 2), 1, 7, 3));
  graphs.push_back(ensure_connected(make_random_graph(350, 1200, 4)));  // regrow
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const double beta = 0.1 + 0.2 * static_cast<double>(i);
    const Clustering a = est_cluster(graphs[i], beta, 40 + i, ws);
    const Clustering b = est_cluster(graphs[i], beta, 40 + i);
    EXPECT_EQ(a.cluster_of, b.cluster_of) << i;
    EXPECT_EQ(a.center, b.center) << i;
    EXPECT_EQ(a.parent, b.parent) << i;
    EXPECT_EQ(a.dist_to_center, b.dist_to_center) << i;
  }
}

TEST(EstClusterWorkspace, WarmIdenticalCallDoesZeroEngineAllocations) {
  // Re-running the same (graph, beta, seed) through one workspace repeats
  // the same bucket schedule inside already-grown buffers. Pinned to one
  // worker: at >1 workers the dynamic expansion scheduling jitters
  // which worker stages which edge, so per-worker staging high-waters can
  // shift a little between identical runs — the multi-thread reuse
  // guarantee (with the quotient loop's natural demand slack) is pinned
  // by ClusterConnectivity.WarmQuotientRoundsDoZeroEngineAllocations.
  const int before = num_workers();
  set_num_workers(1);
  const Graph g = with_uniform_weights(
      ensure_connected(make_random_graph(2000, 8000, 5)), 1, 6, 7);
  EstClusterWorkspace ws;
  const Clustering first = est_cluster(g, 0.25, 9, ws);
  const std::uint64_t warm = ws.engine_alloc_events();
  EXPECT_GT(warm, 0u);
  EXPECT_EQ(ws.array_grow_events(), 1u);
  const Clustering second = est_cluster(g, 0.25, 9, ws);
  EXPECT_EQ(ws.engine_alloc_events(), warm);
  EXPECT_EQ(ws.array_grow_events(), 1u);
  EXPECT_EQ(first.cluster_of, second.cluster_of);
  set_num_workers(before);
}

TEST(EstClusterWorkspace, SurvivesWorkerCountRaiseAfterConstruction) {
  // A long-lived workspace sizes its per-worker scratch at construction;
  // raising the worker count afterwards must regrow it instead of
  // letting worker_id() index out of bounds.
  const int before = num_workers();
  set_num_workers(1);
  EstClusterWorkspace ws;
  const Graph g = ensure_connected(make_random_graph(3000, 9000, 8));
  const Clustering narrow = est_cluster(g, 0.3, 5, ws);
  set_num_workers(std::max(4, before));
  const Clustering wide = est_cluster(g, 0.3, 5, ws);
  set_num_workers(before);
  EXPECT_EQ(narrow.cluster_of, wide.cluster_of);
  EXPECT_EQ(narrow.parent, wide.parent);
  EXPECT_EQ(narrow.dist_to_center, wide.dist_to_center);
}

/// Fraction of vertices whose settled key s_center + dist(center, v) lies
/// at or above 4096, where the spacing of doubles in a unit round
/// interval falls to 2^-40 and below. Read off the oracle's clustering
/// and the shared draws.
double share_keyed_above_4096(const Clustering& c, double beta, std::uint64_t seed) {
  const std::vector<double> delta = est_shifts(c.parent.size(), beta, seed);
  const double delta_max = *std::max_element(delta.begin(), delta.end());
  std::size_t above = 0;
  for (vid v = 0; v < c.parent.size(); ++v) {
    const double key = delta_max - delta[c.center[c.cluster_of[v]]] + c.dist_to_center[v];
    if (key >= 4096.0) ++above;
  }
  return static_cast<double>(above) / static_cast<double>(c.parent.size());
}

TEST(EstClusterWorkspace, LargeKeysMatchOracle) {
  // beta = 0.001 puts delta_max (and with it the live round keys) around
  // ln(n)/beta ~ 7600, so a run's rounds straddle key 4096: keys below it
  // and keys whose unit round interval holds at most 2^40 doubles. A
  // sparse graph keeps many components, so settlements genuinely happen
  // on both sides.
  const Graph g = with_uniform_weights(make_random_graph(2000, 1400, 4), 30, 90, 9);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const Clustering oracle = est_cluster_reference(g, 0.001, seed);
    const double above = share_keyed_above_4096(oracle, 0.001, seed);
    EXPECT_GT(above, 0.0) << seed;
    EXPECT_LT(above, 1.0) << seed;
    const Clustering c = est_cluster(g, 0.001, seed);
    EXPECT_EQ(c.cluster_of, oracle.cluster_of) << seed;
    EXPECT_EQ(c.center, oracle.center) << seed;
    EXPECT_EQ(c.dist_to_center, oracle.dist_to_center) << seed;
  }
}

TEST(EstClusterWorkspace, LargeKeysDeterministicAcrossThreadCounts) {
  const Graph g = with_uniform_weights(make_random_graph(1500, 1000, 6), 20, 70, 3);
  EXPECT_GT(share_keyed_above_4096(est_cluster_reference(g, 0.001, 123), 0.001, 123), 0.0);
  EstClusterWorkspace one_ws;
  const Clustering one = at_threads(1, [&] { return est_cluster(g, 0.001, 123, one_ws); });
  EstClusterWorkspace many_ws;
  const Clustering many = at_threads(4, [&] { return est_cluster(g, 0.001, 123, many_ws); });
  EXPECT_EQ(one.cluster_of, many.cluster_of);
  EXPECT_EQ(one.center, many.center);
  EXPECT_EQ(one.parent, many.parent);
  EXPECT_EQ(one.dist_to_center, many.dist_to_center);
  EXPECT_EQ(one.rounds, many.rounds);
  EXPECT_EQ(one_ws.sequential_rounds(), many_ws.sequential_rounds());
  EXPECT_EQ(one_ws.team_rounds(), many_ws.team_rounds());
}

TEST(EstCluster, ShiftsFollowSeededExponential) {
  const auto shifts = est_shifts(1000, 0.5, 77);
  Rng rng(77);
  for (vid v = 0; v < 1000; ++v) {
    EXPECT_DOUBLE_EQ(shifts[v], rng.exponential(v, 0.5));
  }
}

TEST(EstClusterLaw, RadiusBoundLemma21) {
  // Lemma 2.1: tree radius <= k beta^-1 log n w.p. >= 1 - n^{1-k}. With
  // k=3 a violation on any of 20 trials has probability ~2e-4.
  const vid n = 400;
  const Graph g = make_grid(20, 20);
  const double beta = 0.5;
  const double bound = 3.0 * std::log(static_cast<double>(n)) / beta;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Clustering c = est_cluster(g, beta, seed);
    EXPECT_LE(max_cluster_radius(c), bound) << seed;
  }
}

TEST(EstClusterLaw, SmallerBetaMakesFewerBiggerClusters) {
  const Graph g = make_grid(30, 30);
  double prev = 1e18;
  for (double beta : {1.0, 0.3, 0.1}) {
    double mean_clusters = 0;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      mean_clusters += est_cluster(g, beta, seed).num_clusters;
    }
    mean_clusters /= 5;
    EXPECT_LT(mean_clusters, prev) << beta;
    prev = mean_clusters;
  }
}

TEST(EstClusterLaw, CutProbabilityCorollary23) {
  // Corollary 2.3: P[edge of weight w cut] <= 1 - exp(-beta w) < beta w.
  // Measure the aggregate cut fraction on unit weights across seeds.
  const Graph g = make_torus(24, 24);  // edge-transitive: fractions are clean
  for (double beta : {0.1, 0.3}) {
    double frac = 0;
    const int trials = 12;
    for (std::uint64_t seed = 0; seed < trials; ++seed) {
      frac += cut_fraction(g, est_cluster(g, beta, 1000 + seed));
    }
    frac /= trials;
    const double bound = 1.0 - std::exp(-beta);
    // Sampling slack: the bound holds in expectation per edge.
    EXPECT_LE(frac, bound * 1.25) << "beta=" << beta;
  }
}

TEST(EstClusterLaw, WeightedCutProbabilityScalesWithWeight) {
  // Heavier edges are cut proportionally more often (Corollary 2.3).
  const Graph g = with_uniform_weights(make_torus(20, 20), 1, 8, 5);
  const double beta = 0.05;
  std::array<double, 9> cut{}, total{};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Clustering c = est_cluster(g, beta, seed);
    for (const Edge& e : g.undirected_edges()) {
      const auto w = static_cast<std::size_t>(e.w);
      total[w] += 1;
      if (c.cluster_of[e.u] != c.cluster_of[e.v]) cut[w] += 1;
    }
  }
  for (std::size_t w = 1; w <= 8; ++w) {
    ASSERT_GT(total[w], 0);
    const double p = cut[w] / total[w];
    const double bound = 1.0 - std::exp(-beta * static_cast<double>(w));
    EXPECT_LE(p, bound * 1.5 + 0.02) << "w=" << w;
  }
}

TEST(EstClusterLaw, BallIntersectionCorollary31) {
  // Corollary 3.1: with beta = ln(n)/(2k), E[#clusters meeting B(v,1)]
  // <= n^{1/k} (the proof's bound is e^{2 beta} = n^{1/k}).
  const vid n = 900;
  const Graph g = make_torus(30, 30);
  const double k = 3.0;
  const double beta = std::log(static_cast<double>(n)) / (2.0 * k);
  std::vector<vid> queries;
  for (vid v = 0; v < n; v += 30) queries.push_back(v);
  double mean = 0;
  int count = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Clustering c = est_cluster(g, beta, seed);
    for (vid x : ball_cluster_counts(g, c, queries, 1.0)) {
      mean += x;
      ++count;
    }
  }
  mean /= count;
  const double bound = std::pow(static_cast<double>(n), 1.0 / k);
  EXPECT_LE(mean, bound * 1.3);
  EXPECT_GE(mean, 1.0);
}

TEST(EstCluster, LargeBetaShattersIntoSingletons) {
  // With beta >> 1 every delta is ~0, so everyone self-starts first.
  const Graph g = make_grid(10, 10);
  const Clustering c = est_cluster(g, 50.0, 3);
  EXPECT_GT(c.num_clusters, 80u);
}

TEST(EstCluster, MembersAndSizesConsistent) {
  const Graph g = make_grid(10, 10);
  const Clustering c = est_cluster(g, 0.4, 8);
  const auto members = c.members();
  const auto sizes = c.sizes();
  ASSERT_EQ(members.size(), c.num_clusters);
  ASSERT_EQ(sizes.size(), c.num_clusters);
  for (vid i = 0; i < c.num_clusters; ++i) {
    EXPECT_EQ(members[i].size(), sizes[i]);
    for (vid v : members[i]) EXPECT_EQ(c.cluster_of[v], i);
  }
}

TEST(ClusterStats, ValidateRejectsCorruptedClusterings) {
  const Graph g = make_grid(6, 6);
  Clustering c = est_cluster(g, 0.5, 2);
  ASSERT_TRUE(validate_clustering(g, c));
  {
    Clustering bad = c;
    bad.cluster_of[5] = bad.num_clusters;  // out of range
    EXPECT_FALSE(validate_clustering(g, bad));
  }
  {
    Clustering bad = c;
    // Break a tree distance.
    for (vid v = 0; v < g.num_vertices(); ++v) {
      if (bad.parent[v] != kNoVertex) {
        bad.dist_to_center[v] += 5;
        break;
      }
    }
    EXPECT_FALSE(validate_clustering(g, bad));
  }
  {
    Clustering bad = c;
    bad.parent[bad.center[0]] = 0;  // center must have no parent
    if (bad.center[0] != 0) {
      EXPECT_FALSE(validate_clustering(g, bad));
    }
  }
}

TEST(ClusterStats, CutEdgesCountsInterClusterOnce) {
  const Graph g = make_path(10);
  Clustering c;
  c.num_clusters = 2;
  c.cluster_of = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  c.center = {0, 5};
  c.parent.assign(10, kNoVertex);
  c.dist_to_center.assign(10, 0);
  EXPECT_EQ(count_cut_edges(g, c), 1u);
  EXPECT_NEAR(cut_fraction(g, c), 1.0 / 9.0, 1e-12);
}

}  // namespace
}  // namespace parsh
