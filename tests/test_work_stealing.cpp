// Skewed-frontier coverage for the degree-aware work-stealing rounds.
//
// The FrontierRelaxer (parallel/bucket_engine.hpp) splits each round's
// edge work into stolen ranges so hub vertices are relaxed by many
// workers. Its contract: scheduling never changes WHICH per-edge calls
// happen, so every driver built on the order-independent CRCW min-reduces
// matches the sequential oracles (est_cluster_reference, Dijkstra) and is
// bit-identical at 1 vs many threads. These tests pin that on the skew
// inputs the mechanism exists for — star / hub-and-spoke graphs and
// heavy-tailed RMATs — plus the warm high-water reuse of the relaxer's
// prefix scratch.
//
// Workspaces asserting edge_grain_rounds() pin a push policy: the skew zoo's
// dense rounds trip the direction heuristic organically, and a pull round
// is not counted as an edge-grain round. Push-vs-pull equivalence has its
// own suite (test_direction_optimizing.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/cluster_stats.hpp"
#include "cluster/est_cluster.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/hop_limited.hpp"
#include "sssp/sssp_workspace.hpp"
#include "thread_scope.hpp"

namespace parsh {
namespace {

void expect_same_clustering(const Clustering& a, const Clustering& b) {
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_EQ(a.center, b.center);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.dist_to_center, b.dist_to_center);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.rounds, b.rounds);
}

/// The skew zoo: every graph has at least one frontier whose edge total
/// exceeds FrontierRelaxer::kEdgeGrain concentrated on few vertices.
std::vector<std::pair<const char*, Graph>> skewed_graphs(std::uint64_t seed) {
  std::vector<std::pair<const char*, Graph>> out;
  out.emplace_back("star", make_star(5000));
  out.emplace_back("hubs", make_hubs(9000, 3, seed));
  out.emplace_back("rmat-heavy",
                   ensure_connected(make_rmat_heavy(4000, 24000, seed + 1)));
  return out;
}

class WorkStealing : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkStealing, EstClusterStolenPathMatchesOracleAcrossWidths) {
  for (const auto& [name, g] : skewed_graphs(GetParam())) {
    SCOPED_TRACE(name);
    const Clustering oracle = est_cluster_reference(g, 0.5, GetParam());
    std::vector<Clustering> by_width;
    for (int threads : {1, 4}) {
      EstClusterWorkspace ws;
      ws.set_round_policy({.direction = RoundPolicy::Direction::kPush});
      const Clustering engine =
          at_threads(threads, [&] { return est_cluster(g, 0.5, GetParam(), ws); });
      // The skew actually exercised the stolen path.
      EXPECT_GT(ws.edge_grain_rounds(), 0u) << name << " @" << threads;
      // parent is not compared: equal-key ties (two equal-length tree paths
      // from the same center) are broken differently by the oracle's
      // priority queue, and both parents are valid — validate_clustering
      // checks the forest instead (same convention as test_est_cluster).
      EXPECT_EQ(engine.cluster_of, oracle.cluster_of) << name;
      EXPECT_EQ(engine.center, oracle.center) << name;
      EXPECT_EQ(engine.dist_to_center, oracle.dist_to_center) << name;
      EXPECT_TRUE(validate_clustering(g, engine)) << name;
      by_width.push_back(engine);
    }
    expect_same_clustering(by_width[1], by_width[0]);
  }
}

TEST_P(WorkStealing, HopLimitedDistancesStolenPathAcrossThreads) {
  // Bellman-Ford distances and the round/relaxation counters are
  // deterministic: each round reads the round-start distances and
  // resolves concurrent improvements by a CAS min, so they must survive
  // the stolen path and any thread count. With h = n the distances are
  // exact, so they equal Dijkstra's.
  for (const auto& [name, g] : skewed_graphs(GetParam())) {
    SCOPED_TRACE(name);
    const vid n = g.num_vertices();
    auto sweep = [&](SsspWorkspace& ws) {
      const HopLimitedStats stats = hop_limited_sssp(g, 0, n, kInfWeight, ws);
      std::vector<weight_t> dist(n);
      for (vid v = 0; v < n; ++v) dist[v] = ws.dist_of(v);
      return std::tuple(dist, stats.rounds, stats.relaxations);
    };
    SsspWorkspace one_ws;
    const auto baseline = at_threads(1, [&] { return sweep(one_ws); });
    EXPECT_EQ(std::get<0>(baseline), dijkstra(g, 0).dist);
    for (int threads : {1, 4}) {
      SsspWorkspace ws;
      const auto stolen = at_threads(threads, [&] { return sweep(ws); });
      EXPECT_GT(ws.edge_grain_rounds(), 0u) << name << " @" << threads;
      EXPECT_EQ(stolen, baseline);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkStealing, ::testing::Values<std::uint64_t>(1, 2, 3));

// --- warm high-water reuse on a hub-heavy RMAT (excluded from the TSan
// --- job by the *Warm* filter: allocation-count regression, not a race
// --- check, and too slow under instrumentation).

// Pinned to one worker, like every identical-rerun Warm test: at >1
// workers the dynamic stage scheduling jitters which worker stages which
// edge, so per-worker staging high-waters can shift a little between
// identical runs. The relaxer's prefix scratch itself is sized by the
// frontier — schedule-independent — but the engine counters it is
// asserted alongside are not.

TEST(WorkStealingWarm, HubHeavyRmatReusesRelaxScratch) {
  const Graph g = ensure_connected(make_rmat_heavy(60000, 360000, 7));
  at_threads(1, [&] {
    EstClusterWorkspace ws;
    ws.set_round_policy({.direction = RoundPolicy::Direction::kPush});
    est_cluster(g, 0.4, 7, ws);  // cold: grows engine + relaxer scratch
    EXPECT_GT(ws.edge_grain_rounds(), 0u);
    const std::uint64_t engine_high = ws.engine_alloc_events();
    const std::uint64_t relax_high = ws.relax_alloc_events();
    EXPECT_GT(relax_high, 0u);
    est_cluster(g, 0.4, 7, ws);  // warm: every buffer fits its high water
    EXPECT_EQ(ws.engine_alloc_events(), engine_high);
    EXPECT_EQ(ws.relax_alloc_events(), relax_high);
    return 0;
  });
}

}  // namespace
}  // namespace parsh
