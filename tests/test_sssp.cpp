// Tests for the shortest-path substrate: weighted (Dial) BFS, Dijkstra and
// hop-limited Bellman-Ford, cross-checked against each other over
// parameterized workloads.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/hop_limited.hpp"
#include "sssp/weighted_bfs.hpp"

namespace parsh {
namespace {

class SsspCross : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Graph weighted_graph() const {
    return with_uniform_weights(
        ensure_connected(make_random_graph(300, 900, GetParam())), 1, 20,
        GetParam() + 99);
  }
};

TEST_P(SsspCross, WeightedBfsMatchesDijkstra) {
  const Graph g = weighted_graph();
  const auto d = dijkstra(g, 0);
  const auto w = weighted_bfs(g, 0);
  for (vid v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(w.dist[v], d.dist[v]) << v;
}

TEST_P(SsspCross, HopLimitedConvergesToDijkstra) {
  const Graph g = weighted_graph();
  const auto d = dijkstra(g, 0);
  const auto h = hop_limited_sssp(g, 0, g.num_vertices());
  for (vid v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(h.dist[v], d.dist[v]) << v;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsspCross, ::testing::Values(1, 2, 3, 4));

TEST(WeightedBfs, RoundsTrackDistanceValues) {
  // On a unit-weight path, every distance value is one round.
  const Graph g = make_path(40);
  const auto r = weighted_bfs(g, 0);
  EXPECT_EQ(r.rounds, 40u);  // distances 0..39
}

TEST(WeightedBfs, LimitTruncatesSearch) {
  const Graph g = with_uniform_weights(make_path(30), 2, 2, 1);
  const auto r = weighted_bfs(g, 0, 10.0);
  EXPECT_EQ(r.dist[5], 10);
  EXPECT_EQ(r.dist[6], kInfWeight);
}

TEST(WeightedBfs, MultiSourceOwnersSplitPath) {
  const Graph g = make_path(21);
  const auto r = multi_weighted_bfs(g, {0, 20});
  EXPECT_EQ(r.owner[5], 0u);
  EXPECT_EQ(r.owner[15], 1u);
  EXPECT_EQ(r.dist[10], 10);
  EXPECT_EQ(r.owner[10], 0u);  // exact tie goes to the smaller source index
}

TEST(Dijkstra, LimitedStopsAtRadius) {
  const Graph g = with_uniform_weights(make_path(30), 3, 3, 1);
  const auto r = dijkstra_limited(g, 0, 9.0);
  EXPECT_EQ(r.dist[3], 9);
  EXPECT_EQ(r.dist[4], kInfWeight);
}

TEST(Dijkstra, StDistanceAndPathExtraction) {
  const Graph g = make_grid(5, 5);
  EXPECT_EQ(st_distance(g, 0, 24), 8);
  const auto r = dijkstra(g, 0);
  const auto path = extract_path(r.parent, 0, 24);
  ASSERT_EQ(path.size(), 9u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 24u);
}

TEST(Dijkstra, PathExtractionReturnsEmptyWhenDisconnected) {
  const Graph g = Graph::from_edges(4, {{0, 1, 1}, {2, 3, 1}});
  const auto r = dijkstra(g, 0);
  EXPECT_TRUE(extract_path(r.parent, 0, 3).empty());
}

TEST(HopLimited, DistHIsMonotoneNonIncreasingInH) {
  const Graph g = with_uniform_weights(ensure_connected(make_random_graph(100, 300, 5)),
                                       1, 10, 55);
  weight_t prev = kInfWeight;
  for (std::uint64_t h : {1u, 2u, 4u, 8u, 16u, 64u}) {
    const auto r = hop_limited_sssp(g, 0, h);
    const weight_t d = r.dist[99];
    if (prev != kInfWeight) {
      EXPECT_LE(d, prev);
    }
    prev = d;
  }
}

TEST(HopLimited, ExactlyHHopsOnAPath) {
  const Graph g = make_path(20);
  const auto r = hop_limited_sssp(g, 0, 7);
  EXPECT_EQ(r.dist[7], 7);
  EXPECT_EQ(r.dist[8], kInfWeight);
}

TEST(HopLimited, HopsToApproxFindsShortcut) {
  // Path plus a direct (slightly heavier) edge: one hop reaches within
  // the approximation budget immediately.
  Graph g = make_path(100);
  g = g.with_extra_edges({{0, 99, 110}});
  EXPECT_EQ(hops_to_approx(g, 0, 99, 99.0, 0.2, 1000), 1u);
  // With a tight budget the search must walk the path.
  EXPECT_EQ(hops_to_approx(g, 0, 99, 99.0, 0.05, 1000), 99u);
}

TEST(HopLimited, SourceEqualsTargetIsZeroHops) {
  const Graph g = make_path(5);
  EXPECT_EQ(hops_to_approx(g, 2, 2, 0.0, 0.1, 10), 0u);
}

/// parent[] must be a valid shortest-path tree: every reached non-source
/// vertex has a parent edge whose relaxation is tight.
void expect_valid_sssp_tree(const Graph& g, vid source,
                            const std::vector<weight_t>& dist,
                            const std::vector<vid>& parent) {
  ASSERT_EQ(parent[source], kNoVertex);
  for (vid v = 0; v < g.num_vertices(); ++v) {
    if (v == source || dist[v] == kInfWeight) {
      EXPECT_EQ(parent[v], kNoVertex) << v;
      continue;
    }
    const vid p = parent[v];
    ASSERT_NE(p, kNoVertex) << v;
    bool tight = false;
    for (eid e = g.begin(v); e < g.end(v); ++e) {
      if (g.target(e) == p && dist[p] + g.weight(e) == dist[v]) tight = true;
    }
    EXPECT_TRUE(tight) << "no tight edge " << p << "->" << v;
  }
}

TEST(WeightedBfs, MultiSourceDuplicateSourcesHandled) {
  const Graph g = make_cycle(10);
  const auto r = multi_weighted_bfs(g, {3, 3, 3});
  EXPECT_EQ(r.dist[3], 0);
  EXPECT_EQ(r.owner[3], 0u);
  EXPECT_EQ(r.dist[8], 5);
}

TEST(WeightedBfs, ParentsFormShortestPathTree) {
  const Graph g = with_uniform_weights(
      ensure_connected(make_random_graph(300, 900, 6)), 1, 9, 11);
  const auto r = weighted_bfs(g, 0);
  expect_valid_sssp_tree(g, 0, r.dist, r.parent);
}

TEST(SsspWorkspace, WarmRepeatCallsDoZeroWorkspaceAllocations) {
  // One workspace across the whole SSSP family: the first pass warms the
  // buffers, identical repeat calls must not allocate (engine, arrays or
  // scratch — alloc_events() covers all three). Pinned to one worker:
  // which worker's staging buffer a winner lands in is schedule-dependent
  // at higher thread counts, so the per-worker high-water marks — and
  // with them the exact allocation count — are only reproducible here.
#ifdef PARSH_HAVE_OPENMP
  const int before = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  const Graph g = with_uniform_weights(
      ensure_connected(make_random_graph(500, 2000, 12)), 1, 9, 13);
  SsspWorkspace ws;
  auto run_family = [&] {
    const auto m = multi_weighted_bfs(g, {1, 7}, kInfWeight, ws);
    const auto w = weighted_bfs(g, 2, kInfWeight, ws);
    const auto h = hop_limited_sssp(g, 5, 64, kInfWeight, ws);
    return std::tuple(m.dist, m.owner, w.dist, w.parent, h.rounds);
  };
  const auto cold = run_family();
  const std::uint64_t after_cold = ws.alloc_events();
  EXPECT_GT(after_cold, 0u);
  const auto warm = run_family();
  EXPECT_EQ(ws.alloc_events(), after_cold);
  EXPECT_EQ(cold, warm);
#ifdef PARSH_HAVE_OPENMP
  omp_set_num_threads(before);
#endif
}

TEST(SsspWorkspace, ResultsReadableInPlaceUntilNextRun) {
  const Graph g = with_uniform_weights(make_path(30), 2, 2, 1);
  SsspWorkspace ws;
  const auto r = weighted_bfs(g, 0, kInfWeight, ws);
  EXPECT_EQ(ws.touched().size(), 30u);
  for (vid v = 0; v < 30; ++v) {
    EXPECT_EQ(ws.dist_of(v), r.dist[v]);
    EXPECT_EQ(ws.parent_of(v), r.parent[v]);
  }
  // A distance-capped run leaves untouched vertices reading infinity.
  (void)hop_limited_sssp(g, 0, 100, 6.0, ws);
  EXPECT_EQ(ws.dist_of(3), 6.0);
  EXPECT_EQ(ws.dist_of(4), kInfWeight);
  EXPECT_EQ(ws.parent_of(4), kNoVertex);
  EXPECT_EQ(ws.touched().size(), 4u);
}

}  // namespace
}  // namespace parsh
