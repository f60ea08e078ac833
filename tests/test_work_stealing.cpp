// Skewed-frontier coverage for the degree-aware work-stealing rounds.
//
// The FrontierRelaxer (parallel/bucket_engine.hpp) splits each round's
// edge work into stolen ranges so hub vertices are relaxed by many
// workers. Its contract: scheduling never changes WHICH per-edge calls
// happen, so every driver built on the order-independent CRCW min-reduces
// is bit-identical across (a) the stolen edge-grain path vs the
// whole-vertex path (RoundPolicy::Rounds::kVertexGrain), and (b) 1 vs many
// threads. These tests pin that on the skew inputs the mechanism exists
// for — star / hub-and-spoke graphs and heavy-tailed RMATs — plus the
// oracle equivalence and the warm high-water reuse of the relaxer's
// prefix scratch.
//
// Workspaces asserting edge_grain_rounds() pin a push policy: the skew zoo's
// dense rounds trip the direction heuristic organically, and a pull round
// is counted as neither edge- nor vertex-grain. Push-vs-pull equivalence
// has its own suite (test_direction_optimizing.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cluster_stats.hpp"
#include "cluster/est_cluster.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "sssp/bfs.hpp"
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

TEST_P(WorkStealing, EstClusterStolenPathMatchesOracle) {
  for (const auto& [name, g] : skewed_graphs(GetParam())) {
    SCOPED_TRACE(name);
    EstClusterWorkspace ws;
    ws.set_round_policy({.direction = RoundPolicy::Direction::kPush});
    const Clustering engine = est_cluster(g, 0.5, GetParam(), ws);
    // The skew actually exercised the stolen path.
    EXPECT_GT(ws.edge_grain_rounds(), 0u) << name;
    const Clustering oracle = est_cluster_reference(g, 0.5, GetParam());
    // parent is not compared: equal-key ties (two equal-length tree paths
    // from the same center) are broken differently by the oracle's
    // priority queue, and both parents are valid — validate_clustering
    // checks the forest instead (same convention as test_est_cluster).
    EXPECT_EQ(engine.cluster_of, oracle.cluster_of) << name;
    EXPECT_EQ(engine.center, oracle.center) << name;
    EXPECT_EQ(engine.dist_to_center, oracle.dist_to_center) << name;
    EXPECT_TRUE(validate_clustering(g, engine)) << name;
  }
}

TEST_P(WorkStealing, EstClusterEdgeGrainVsVertexGrainAcrossThreads) {
  for (const auto& [name, g] : skewed_graphs(GetParam())) {
    SCOPED_TRACE(name);
    // Baseline: the pre-work-stealing whole-vertex scheduling, 1 thread.
    EstClusterWorkspace vertex_ws;
    vertex_ws.set_round_policy({.rounds = RoundPolicy::Rounds::kVertexGrain});
    const Clustering baseline =
        at_threads(1, [&] { return est_cluster(g, 0.5, GetParam(), vertex_ws); });
    EXPECT_EQ(vertex_ws.edge_grain_rounds(), 0u);
    EXPECT_GT(vertex_ws.vertex_grain_rounds(), 0u);
    for (int threads : {1, 4}) {
      EstClusterWorkspace ws;
      ws.set_round_policy({.direction = RoundPolicy::Direction::kPush});
      const Clustering stolen =
          at_threads(threads, [&] { return est_cluster(g, 0.5, GetParam(), ws); });
      EXPECT_GT(ws.edge_grain_rounds(), 0u) << name << " @" << threads;
      expect_same_clustering(stolen, baseline);
      // And vertex-grain at many threads agrees too.
      EstClusterWorkspace ws4;
      ws4.set_round_policy({.rounds = RoundPolicy::Rounds::kVertexGrain});
      const Clustering vertex4 =
          at_threads(threads, [&] { return est_cluster(g, 0.5, GetParam(), ws4); });
      expect_same_clustering(vertex4, baseline);
    }
  }
}

TEST_P(WorkStealing, BfsDistancesStolenPathAcrossThreads) {
  // BFS distances AND parents are deterministic: parents are the
  // per-level min-via argmin, so the whole tree must survive the stolen
  // path and any thread count.
  for (const auto& [name, g] : skewed_graphs(GetParam())) {
    SCOPED_TRACE(name);
    SsspWorkspace vertex_ws;
    vertex_ws.set_round_policy({.rounds = RoundPolicy::Rounds::kVertexGrain});
    const BfsResult baseline =
        at_threads(1, [&] { return bfs(g, 0, kNoVertex, vertex_ws); });
    for (int threads : {1, 4}) {
      SsspWorkspace ws;
      ws.set_round_policy({.direction = RoundPolicy::Direction::kPush});
      const BfsResult stolen =
          at_threads(threads, [&] { return bfs(g, 0, kNoVertex, ws); });
      EXPECT_GT(ws.edge_grain_rounds(), 0u) << name << " @" << threads;
      EXPECT_EQ(stolen.dist, baseline.dist);
      EXPECT_EQ(stolen.parent, baseline.parent);
      EXPECT_EQ(stolen.rounds, baseline.rounds);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkStealing, ::testing::Values<std::uint64_t>(1, 2, 3));

// --- warm high-water reuse on a hub-heavy RMAT (excluded from the TSan
// --- job by the *Warm* filter: allocation-count regression, not a race
// --- check, and too slow under instrumentation).

// Pinned to one worker, like every identical-rerun Warm test: at >1
// workers OpenMP's dynamic scheduling jitters which worker stages which
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
