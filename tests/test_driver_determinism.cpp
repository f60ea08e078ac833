// Thread-count determinism for every est_cluster driver. PR 1 pinned the
// guarantee for est_cluster itself: the CRCW priority write resolves by
// (key, via) minimum, so the clustering is schedule-independent. The
// drivers — spanners, hopsets, connectivity, low-stretch trees — are
// deterministic compositions of that primitive, so each must produce
// bit-identical output at 1 worker and at many. These tests pin that down
// for the whole surface, on unweighted and integer-weighted random graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "cluster/cluster_connectivity.hpp"
#include "cluster/est_cluster.hpp"
#include "graph/generators.hpp"
#include "hopset/hopset.hpp"
#include "parallel/parallel_for.hpp"
#include "spanner/distributed_spanner.hpp"
#include "spanner/low_stretch_tree.hpp"
#include "spanner/spanner.hpp"
#include "graph/delta.hpp"
#include "sssp/approx_query.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/dynamic_approx.hpp"
#include "sssp/hop_limited.hpp"
#include "sssp/weighted_bfs.hpp"
#include "thread_scope.hpp"

namespace parsh {
namespace {

/// The 1-vs-4-thread comparison every test below runs.
template <typename F>
auto one_and_many(F f) {
  auto one = at_threads(1, f);
  auto many = at_threads(4, f);
  return std::pair(std::move(one), std::move(many));
}

class DriverDeterminism : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  [[nodiscard]] Graph unweighted() const {
    return ensure_connected(make_random_graph(400, 1400, GetParam()));
  }
  [[nodiscard]] Graph weighted() const {
    return with_uniform_weights(unweighted(), 1, 9, GetParam() + 17);
  }
};

TEST_P(DriverDeterminism, UnweightedSpanner) {
  const Graph g = unweighted();
  const auto [one, many] =
      one_and_many([&] { return unweighted_spanner(g, 3.0, GetParam()); });
  EXPECT_EQ(one.edges, many.edges);
  EXPECT_EQ(one.rounds, many.rounds);
  EXPECT_EQ(one.levels, many.levels);
}

TEST_P(DriverDeterminism, WeightedSpanner) {
  const Graph g = weighted();
  const auto [one, many] =
      one_and_many([&] { return weighted_spanner(g, 3.0, GetParam()); });
  EXPECT_EQ(one.edges, many.edges);
  EXPECT_EQ(one.rounds, many.rounds);
}

TEST_P(DriverDeterminism, DistributedSpanner) {
  const Graph g = unweighted();
  const auto [one, many] = one_and_many(
      [&] { return distributed_unweighted_spanner(g, 3.0, GetParam()); });
  EXPECT_EQ(one.edges, many.edges);
  EXPECT_EQ(one.rounds, many.rounds);
  EXPECT_EQ(one.messages, many.messages);
}

TEST_P(DriverDeterminism, ClusterConnectivity) {
  // Includes a disconnected instance: determinism must not depend on the
  // quotient loop contracting everything to one vertex.
  for (const Graph& g :
       {unweighted(), make_random_graph(500, 300, GetParam() + 5)}) {
    const auto [one, many] =
        one_and_many([&] { return cluster_connectivity(g, GetParam()); });
    EXPECT_EQ(one.component, many.component);
    EXPECT_EQ(one.num_components, many.num_components);
    EXPECT_EQ(one.rounds, many.rounds);
  }
}

TEST_P(DriverDeterminism, AkpwLowStretchTree) {
  const Graph g = weighted();
  const auto [one, many] =
      one_and_many([&] { return akpw_low_stretch_tree(g, 2.0, GetParam()); });
  EXPECT_EQ(one.edges, many.edges);
  EXPECT_EQ(one.iterations, many.iterations);
}

TEST_P(DriverDeterminism, Hopset) {
  const Graph g = weighted();
  HopsetParams p;
  p.seed = GetParam();
  const auto [one, many] = one_and_many([&] { return build_hopset(g, p); });
  EXPECT_EQ(one.edges, many.edges);
  EXPECT_EQ(one.star_edges, many.star_edges);
  EXPECT_EQ(one.clique_edges, many.clique_edges);
  EXPECT_EQ(one.levels, many.levels);
  EXPECT_EQ(one.clusterings, many.clusterings);
}

// --- the SSSP family (PR 3: every traversal driver runs on the shared
// --- SsspWorkspace; distances, parents and counters must be bit-identical
// --- across thread counts).

TEST_P(DriverDeterminism, SkewedFrontierDrivers) {
  // Hub-heavy inputs route every expansion through the degree-aware
  // stolen edge ranges (PR 4): the drivers that compose est_cluster and
  // the hop-limited sweep must stay bit-identical across thread counts
  // when their rounds are dominated by a few huge-degree vertices.
  const Graph hub = make_hubs(6000, 4, GetParam());
  const auto [sp1, sp4] =
      one_and_many([&] { return unweighted_spanner(hub, 3.0, GetParam()); });
  EXPECT_EQ(sp1.edges, sp4.edges);
  EXPECT_EQ(sp1.rounds, sp4.rounds);
  const Graph heavy = with_uniform_weights(
      ensure_connected(make_rmat_heavy(3000, 18000, GetParam() + 41)), 1, 9,
      GetParam() + 43);
  const auto [hl1, hl4] = one_and_many(
      [&] { return hop_limited_sssp(heavy, 0, heavy.num_vertices()); });
  EXPECT_EQ(hl1.dist, hl4.dist);
  EXPECT_EQ(hl1.rounds, hl4.rounds);
  EXPECT_EQ(hl1.relaxations, hl4.relaxations);
}

TEST_P(DriverDeterminism, WeightedBfs) {
  const Graph g = weighted();
  const auto [one, many] = one_and_many([&] { return weighted_bfs(g, 0); });
  EXPECT_EQ(one.dist, many.dist);
  EXPECT_EQ(one.rounds, many.rounds);
}

TEST_P(DriverDeterminism, HopLimited) {
  const Graph g = weighted();
  const auto [one, many] =
      one_and_many([&] { return hop_limited_sssp(g, 0, 24); });
  EXPECT_EQ(one.dist, many.dist);
  EXPECT_EQ(one.rounds, many.rounds);
  EXPECT_EQ(one.relaxations, many.relaxations);
}

TEST_P(DriverDeterminism, ApproxQueryAll) {
  const Graph g = weighted();
  ApproxShortestPaths::Params p;
  p.hopset.hopset.seed = GetParam();
  const auto [one, many] = one_and_many([&] {
    const ApproxShortestPaths engine(g, p);
    return engine.query_all(0);
  });
  EXPECT_EQ(one.estimate, many.estimate);
  EXPECT_EQ(one.rounds, many.rounds);
  EXPECT_EQ(one.relaxations, many.relaxations);
}

// --- round scheduling: every driver's drain loop runs inside one
// --- persistent team, and a round of at most kInlineRoundItems items runs
// --- the same body on the driver alone. Output must be bit-identical
// --- across one thread vs a real 4-wide team (at_threads sets the pool
// --- width, so the stages race even on hosts with fewer processors),
// --- across flat/compressed storage, and equal to the sequential oracles
// --- (est_cluster_reference, Dijkstra) where those apply.

void expect_same_clustering(const Clustering& a, const Clustering& b) {
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_EQ(a.center, b.center);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.dist_to_center, b.dist_to_center);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.rounds, b.rounds);
}

class TeamRounds : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // Big enough that mid-run frontiers exceed the inline cut
  // (kInlineRoundItems = 2048 items) while head/tail rounds stay below
  // it — the straddling case both schedules must agree on.
  [[nodiscard]] Graph straddling() const {
    return ensure_connected(make_random_graph(6000, 36000, GetParam()));
  }
  [[nodiscard]] Graph straddling_weighted() const {
    return with_uniform_weights(straddling(), 1, 9, GetParam() + 17);
  }
};

TEST_P(TeamRounds, EstClusterWideTeamVsOneThread) {
  const Graph g = straddling_weighted();
  EstClusterWorkspace one_ws;
  const Clustering baseline =
      at_threads(1, [&] { return est_cluster(g, 0.5, GetParam(), one_ws); });
  // The straddle actually happened: both round classes occurred.
  EXPECT_GT(one_ws.sequential_rounds(), 0u);
  EXPECT_GT(one_ws.team_rounds(), 0u);
  EstClusterWorkspace team_ws;
  // Any parallel_for reached from inside the persistent region would
  // silently serialize; the drain loops must route every phase through
  // Team::loop, so arm the abort hook for the duration.
  assert_on_nested_sequential(true);
  const Clustering team =
      at_threads(4, [&] { return est_cluster(g, 0.5, GetParam(), team_ws); });
  assert_on_nested_sequential(false);
  expect_same_clustering(team, baseline);
  // The round classes are decided by round contents, not the schedule.
  EXPECT_EQ(team_ws.sequential_rounds(), one_ws.sequential_rounds());
  EXPECT_EQ(team_ws.team_rounds(), one_ws.team_rounds());
}

TEST_P(TeamRounds, EstClusterMatchesOracleAcrossWidthsAndStorage) {
  const Graph flat = straddling_weighted();
  const Graph compressed = flat.compress_adjacency();
  const Clustering oracle = est_cluster_reference(flat, 0.5, GetParam());
  for (int width : {1, 4}) {
    for (const Graph* g : {&flat, &compressed}) {
      EstClusterWorkspace ws;
      const Clustering out =
          at_threads(width, [&] { return est_cluster(*g, 0.5, GetParam(), ws); });
      EXPECT_GT(ws.sequential_rounds(), 0u);
      EXPECT_GT(ws.team_rounds(), 0u);
      // parent is not compared: the oracle's priority queue breaks
      // equal-key parent ties differently (see test_est_cluster).
      EXPECT_EQ(out.cluster_of, oracle.cluster_of) << "@" << width;
      EXPECT_EQ(out.center, oracle.center) << "@" << width;
      EXPECT_EQ(out.dist_to_center, oracle.dist_to_center) << "@" << width;
    }
  }
}

TEST_P(TeamRounds, HopLimitedUnitWeightsAcrossWidthsMatchesDijkstra) {
  // An unbounded sweep (h = n) on the unit-weight straddling graph:
  // distances equal Dijkstra's, and distances, round and relaxation
  // counters and the round classes are identical on the team
  // (nested-sequential hook armed).
  const Graph g = straddling();
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
  EXPECT_GT(one_ws.sequential_rounds(), 0u);
  EXPECT_GT(one_ws.team_rounds(), 0u);
  SsspWorkspace ws;
  assert_on_nested_sequential(true);
  EXPECT_EQ(at_threads(4, [&] { return sweep(ws); }), baseline);
  assert_on_nested_sequential(false);
  EXPECT_EQ(ws.sequential_rounds(), one_ws.sequential_rounds());
  EXPECT_EQ(ws.team_rounds(), one_ws.team_rounds());
}

TEST_P(TeamRounds, HopLimitedAcrossWidthsAndStorage) {
  // Barrier-separated Bellman-Ford rounds (exact dist^h): distances,
  // round and relaxation counters identical across team widths and
  // flat/compressed storage.
  const Graph flat = straddling_weighted();
  const Graph compressed = flat.compress_adjacency();
  SsspWorkspace one_ws;
  const auto baseline =
      at_threads(1, [&] { return hop_limited_sssp(flat, 0, 24, kInfWeight, one_ws); });
  const auto baseline_dist = [&] {
    std::vector<weight_t> d(flat.num_vertices());
    for (vid v = 0; v < flat.num_vertices(); ++v) d[v] = one_ws.dist_of(v);
    return d;
  }();
  for (int width : {1, 4}) {
    for (const Graph* g : {&flat, &compressed}) {
      SsspWorkspace ws;
      const auto stats = at_threads(
          width, [&] { return hop_limited_sssp(*g, 0, 24, kInfWeight, ws); });
      EXPECT_EQ(stats.rounds, baseline.rounds);
      EXPECT_EQ(stats.relaxations, baseline.relaxations);
      EXPECT_EQ(ws.sequential_rounds(), one_ws.sequential_rounds());
      EXPECT_EQ(ws.team_rounds(), one_ws.team_rounds());
      for (vid v = 0; v < flat.num_vertices(); ++v) {
        ASSERT_EQ(ws.dist_of(v), baseline_dist[v]) << v;
      }
    }
  }
}

// Target-bounded sweeps (the s-t query path): the bound is read at round
// start and the frontier filter runs after the barrier, so dist(t) and
// the now-smaller rounds/relaxations counters must still match across
// team widths and flat/compressed storage.
TEST_P(TeamRounds, TargetBoundedSweepAndQueryAcrossWidthsAndStorage) {
  const Graph flat = straddling_weighted();
  const Graph compressed = flat.compress_adjacency();
  const vid t = flat.num_vertices() / 2;
  SsspWorkspace one_ws;
  const auto baseline = at_threads(1, [&] {
    return hop_limited_sssp(flat, 0, 24, kInfWeight, one_ws, Deadline::never(), t);
  });
  const weight_t baseline_dt = one_ws.dist_of(t);
  ASSERT_NE(baseline_dt, kInfWeight);
  // The bound cut work, and the cut sweep still straddles the inline cut.
  EXPECT_LT(baseline.relaxations, hop_limited_sssp(flat, 0, 24).relaxations);
  EXPECT_GT(one_ws.team_rounds(), 0u);

  const Graph small = with_uniform_weights(
      ensure_connected(make_random_graph(600, 2400, GetParam())), 1, 9,
      GetParam() + 17);
  ApproxShortestPaths::Params p;
  p.hopset.zeta = p.epsilon / 2.0;  // normalized, so the hopset ctor agrees
  p.hopset.hopset.seed = GetParam();
  const ApproxShortestPaths engine(small, p);
  WeightedHopset packed_hopset = engine.hopset();
  for (HopsetScale& sc : packed_hopset.scales) {
    sc.rounded = sc.rounded.compress_adjacency();
  }
  const ApproxShortestPaths packed(small.num_vertices(), std::move(packed_hopset), p);
  const vid qs = 3;
  const vid qt = small.num_vertices() - 5;
  const auto want = at_threads(1, [&] {
    SsspWorkspace ws;
    return engine.query(qs, qt, ws);
  });
  ASSERT_NE(want.estimate, kInfWeight);

  for (int width : {1, 4}) {
    for (const Graph* g : {&flat, &compressed}) {
      SsspWorkspace ws;
      assert_on_nested_sequential(true);
      const auto stats = at_threads(width, [&] {
        return hop_limited_sssp(*g, 0, 24, kInfWeight, ws, Deadline::never(), t);
      });
      assert_on_nested_sequential(false);
      EXPECT_EQ(ws.dist_of(t), baseline_dt);
      EXPECT_EQ(stats.rounds, baseline.rounds);
      EXPECT_EQ(stats.relaxations, baseline.relaxations);
    }
    for (const ApproxShortestPaths* e : {&engine, &packed}) {
      SsspWorkspace ws;
      const auto got = at_threads(width, [&] { return e->query(qs, qt, ws); });
      EXPECT_EQ(got.estimate, want.estimate);
      EXPECT_EQ(got.scale_used, want.scale_used);
      EXPECT_EQ(got.rounds, want.rounds);
      EXPECT_EQ(got.relaxations, want.relaxations);
    }
  }
}

// Dynamic incremental rebuild: an epoch produced by the incremental
// dirty-scale path must be bit-identical to a forced full rebuild and to
// itself across team widths and graph backings (flat vs compressed). The
// push/pull seam rides the PARSH_FORCE_PULL CI lane, which runs this
// whole suite.
TEST_P(TeamRounds, DynamicRebuildAcrossWidthsAndStorage) {
  const Graph flat = with_uniform_weights(
      ensure_connected(make_random_graph(400, 1400, GetParam())), 1, 9, GetParam() + 17);
  const Graph compressed = flat.compress_adjacency();
  DynamicApproxShortestPaths::Params p;
  p.hopset.hopset.seed = GetParam();
  GraphDelta d;
  d.insert.push_back({0, 200, 3.0});
  d.insert.push_back({5, 300, 1.0});
  d.insert.push_back({17, 17, 2.0});  // self loop no-op rides along
  d.remove.push_back({0, 1, 1.0});

  auto run = [&](const Graph& g, bool force_full) {
    DynamicApproxShortestPaths dyn(g, p);
    dyn.set_force_full_rebuild(force_full);
    const auto res = dyn.apply(d);
    EXPECT_EQ(res.hopset.full_rebuild, force_full);
    return dyn.snapshot()->engine.query_all(0);
  };
  const auto baseline = at_threads(1, [&] { return run(flat, /*full=*/false); });
  const auto check = [&](const ApproxShortestPaths::AllResult& r, const char* what) {
    EXPECT_EQ(r.estimate, baseline.estimate) << what;
    EXPECT_EQ(r.rounds, baseline.rounds) << what;
    EXPECT_EQ(r.relaxations, baseline.relaxations) << what;
  };
  check(at_threads(4, [&] { return run(flat, false); }), "4-wide organic");
  check(at_threads(4, [&] { return run(flat, true); }), "4-wide forced-full");
  check(at_threads(1, [&] { return run(compressed, false); }), "1t compressed");
  check(at_threads(4, [&] { return run(compressed, true); }),
        "4-wide compressed forced-full");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriverDeterminism,
                         ::testing::Values<std::uint64_t>(1, 2, 3));
INSTANTIATE_TEST_SUITE_P(Seeds, TeamRounds,
                         ::testing::Values<std::uint64_t>(1, 2, 3));

}  // namespace
}  // namespace parsh
