// Tests for the shortest-path substrate: weighted (Dial) BFS, Dijkstra,
// hop-limited Bellman-Ford and the label-setting s-t sweep, cross-checked
// against each other over parameterized workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <tuple>

#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/hop_limited.hpp"
#include "sssp/st_sweep.hpp"
#include "sssp/weighted_bfs.hpp"
#include "util/deadline.hpp"

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

/// Weighted BFS runs one round per distance value it settles.
std::uint64_t distinct_finite(const std::vector<weight_t>& dist) {
  std::set<weight_t> values;
  for (weight_t d : dist) {
    if (d != kInfWeight) values.insert(d);
  }
  return values.size();
}

TEST_P(SsspCross, WeightedBfsMatchesDijkstra) {
  const Graph g = weighted_graph();
  const auto d = dijkstra(g, 0);
  const auto w = weighted_bfs(g, 0);
  for (vid v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(w.dist[v], d.dist[v]) << v;
  EXPECT_EQ(w.rounds, distinct_finite(w.dist));
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

TEST(WeightedBfs, KeysBeyondTheWindowMatchDijkstra) {
  // Weights up to 1e6 spread the distances far past the queue's
  // 65,536-key window, so the untargeted sweep refills it from the heap.
  const Graph g = with_uniform_weights(
      ensure_connected(make_random_graph(400, 1600, 21)), 1, 1000000, 22);
  SsspWorkspace ws;
  for (const vid s : {vid{0}, vid{133}, vid{399}}) {
    const auto d = dijkstra(g, s);
    const auto w = weighted_bfs(g, s, kInfWeight, ws);
    EXPECT_GT(*std::max_element(w.dist.begin(), w.dist.end()), 4 * 65536);
    for (vid v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(w.dist[v], d.dist[v]) << v;
    EXPECT_EQ(w.rounds, distinct_finite(w.dist));
  }
}

TEST(WeightedBfs, DistanceOf2To53Throws) {
  // 0 -(2^52)- 1 -(2^52)- 2: vertex 2 sits at 2^53, past the keys a
  // double sum holds exactly, so a search allowed to reach it throws
  // instead of leaving it unreached.
  const Graph g = Graph::from_edges(3, {{0, 1, 0x1p52}, {1, 2, 0x1p52}});
  SsspWorkspace ws;
  EXPECT_THROW((void)weighted_bfs(g, 0, kInfWeight, ws), std::range_error);
  EXPECT_THROW((void)weighted_bfs(g, 0, 0x1p53, ws), std::range_error);
  EXPECT_THROW((void)st_sweep(g, 0, kNoVertex, kInfWeight, ws), std::range_error);
  // A limit below 2^53 prunes vertex 2 as usual, on the same workspace.
  const auto r = weighted_bfs(g, 0, 0x1p53 - 1, ws);
  EXPECT_EQ(r.dist[1], 0x1p52);
  EXPECT_EQ(r.dist[2], kInfWeight);
  EXPECT_EQ(r.rounds, 2u);
  EXPECT_EQ(weighted_bfs(g, 1, kInfWeight, ws).dist[2], 0x1p52);
  // Vertex 3 is first offered 2^53 + 10 via 1, then reached at 2^53 - 3
  // via 2: only a vertex left unreached is an error.
  const Graph late = Graph::from_edges(
      4, {{0, 1, 0x1p53 - 10}, {1, 3, 20}, {0, 2, 0x1p53 - 8}, {2, 3, 5}});
  EXPECT_EQ(weighted_bfs(late, 0, kInfWeight, ws).dist[3], 0x1p53 - 3);
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

TEST(Dijkstra, ParentsFormShortestPathTree) {
  const Graph g = with_uniform_weights(
      ensure_connected(make_random_graph(300, 900, 6)), 1, 9, 11);
  const auto r = dijkstra(g, 0);
  expect_valid_sssp_tree(g, 0, r.dist, r.parent);
}

TEST(SsspWorkspace, WarmRepeatCallsDoZeroWorkspaceAllocations) {
  // One workspace across the whole SSSP family: the first pass warms the
  // buffers, identical repeat calls must not allocate (engine, arrays or
  // scratch — alloc_events() covers all three). Pinned to one worker:
  // which worker's staging buffer a winner lands in is schedule-dependent
  // at higher thread counts, so the per-worker high-water marks — and
  // with them the exact allocation count — are only reproducible here.
  const int before = num_workers();
  set_num_workers(1);
  const Graph g = with_uniform_weights(
      ensure_connected(make_random_graph(500, 2000, 12)), 1, 9, 13);
  SsspWorkspace ws;
  auto run_family = [&] {
    const auto w = weighted_bfs(g, 2, kInfWeight, ws);
    const auto h = hop_limited_sssp(g, 5, 64, kInfWeight, ws);
    const auto t = st_sweep(g, 7, 400, 1e9, ws);
    return std::tuple(w.dist, w.rounds, h.rounds, ws.dist_of(400), t.hops);
  };
  const auto cold = run_family();
  const std::uint64_t after_cold = ws.alloc_events();
  EXPECT_GT(after_cold, 0u);
  const auto warm = run_family();
  EXPECT_EQ(ws.alloc_events(), after_cold);
  EXPECT_EQ(cold, warm);
  set_num_workers(before);
}

TEST(SsspWorkspace, ResultsReadableInPlaceUntilNextRun) {
  const Graph g = with_uniform_weights(make_path(30), 2, 2, 1);
  SsspWorkspace ws;
  const auto r = weighted_bfs(g, 0, kInfWeight, ws);
  EXPECT_EQ(ws.touched().size(), 30u);
  for (vid v = 0; v < 30; ++v) EXPECT_EQ(ws.dist_of(v), r.dist[v]);
  // A distance-capped run leaves untouched vertices reading infinity.
  (void)hop_limited_sssp(g, 0, 100, 6.0, ws);
  EXPECT_EQ(ws.dist_of(3), 6.0);
  EXPECT_EQ(ws.dist_of(4), kInfWeight);
  EXPECT_EQ(ws.touched().size(), 4u);
}

// --- st_sweep: dist(t) must equal Dijkstra's, and its hop label the
// --- least h at which the hop-limited sweep's dist^h(t) reaches dist(t).

void expect_st_sweep_exact(const Graph& g, vid s, vid t, weight_t limit,
                           SsspWorkspace& ws) {
  const weight_t exact = st_distance(g, s, t);
  const StSweepStats r = st_sweep(g, s, t, limit, ws);
  ASSERT_FALSE(r.deadline_hit);
  if (exact > limit) {
    EXPECT_EQ(ws.dist_of(t), kInfWeight) << "s=" << s << " t=" << t;
    return;
  }
  ASSERT_EQ(ws.dist_of(t), exact) << "s=" << s << " t=" << t;
  EXPECT_EQ(r.hops, hops_to_approx(g, s, t, exact, 0.0, g.num_vertices()))
      << "s=" << s << " t=" << t;
}

TEST(StSweep, MatchesDijkstraDistanceAndLeastHops) {
  // Weights 1-3 make many equal-weight paths with different hop counts.
  const Graph g = with_uniform_weights(
      ensure_connected(make_random_graph(300, 900, 4)), 1, 3, 5);
  SsspWorkspace ws;
  for (vid s = 0; s < 300; s += 37) {
    for (vid t = 1; t < 300; t += 29) {
      if (s == t) continue;
      const weight_t exact = st_distance(g, s, t);
      expect_st_sweep_exact(g, s, t, 1e9, ws);
      expect_st_sweep_exact(g, s, t, std::floor(0.6 * exact), ws);
      expect_st_sweep_exact(g, s, t, exact, ws);
    }
  }
}

TEST(StSweep, KeysBeyondTheWindowMatchDijkstra) {
  // Weights up to 200k spread the queued keys far past the 65,536-key
  // window, so most pushes wait in the overflow heap and refill it.
  SsspWorkspace ws;
  for (const Graph& g :
       {with_uniform_weights(ensure_connected(make_random_graph(400, 1600, 7)), 1,
                             200000, 8),
        with_uniform_weights(make_path_with_chords(500, 40, 3), 1000, 90000, 9),
        with_uniform_weights(make_grid(20, 20), 1, 100000, 10)}) {
    const vid n = g.num_vertices();
    bool far = false;
    for (const vid s : {vid{0}, n / 3, n / 2}) {
      for (const vid t : {n - 1, n / 4, 2 * n / 3}) {
        far = far || st_distance(g, s, t) > 4 * 65536;
        expect_st_sweep_exact(g, s, t, 1e12, ws);
        expect_st_sweep_exact(g, s, t, 300000, ws);
      }
    }
    EXPECT_TRUE(far);
  }
}

TEST(StSweep, UnreachedTargetReportsDeepestLabel) {
  // 0-1-2-3-4 and an isolated 5: the sweep exhausts 4 hops, finds no t.
  const Graph g = Graph::from_edges(6, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}});
  SsspWorkspace ws;
  const StSweepStats r = st_sweep(g, 0, 5, 100, ws);
  EXPECT_EQ(ws.dist_of(5), kInfWeight);
  EXPECT_EQ(r.hops, 4u);
  EXPECT_EQ(r.relaxations, 8u);  // every arc of the reached component
  EXPECT_EQ(st_sweep(g, 3, 3, 100, ws).hops, 0u);
  EXPECT_EQ(ws.dist_of(3), 0);
}

TEST(StSweep, DeadlineCutLeavesAnUpperBoundAndAReusableQueue) {
  const Graph g = with_uniform_weights(make_grid(40, 40), 1, 8, 3);
  const vid t = g.num_vertices() - 1;
  const weight_t exact = st_distance(g, 0, t);
  SsspWorkspace ws;
  std::uint64_t last_work = 0;
  for (std::uint64_t checks = 0; checks < 6; ++checks) {
    const StSweepStats r = st_sweep(g, 0, t, 1e9, ws, Deadline::after_checks(checks));
    ASSERT_TRUE(r.deadline_hit) << checks;  // 1,600 vertices: >= 6 polls
    EXPECT_GT(r.relaxations, last_work);    // each poll is 256 settles later
    last_work = r.relaxations;
    const weight_t dt = ws.dist_of(t);
    EXPECT_TRUE(dt == kInfWeight || dt >= exact) << checks;
    // The cut left keys queued; the next run must start from a clean queue.
    expect_st_sweep_exact(g, 5, 77, 1e9, ws);
  }
}

TEST(StSweep, WarmRerunAllocatesNothing) {
  const Graph g = with_uniform_weights(
      ensure_connected(make_random_graph(500, 2000, 12)), 1, 150000, 13);
  SsspWorkspace ws;
  auto run = [&] {
    std::vector<std::tuple<weight_t, std::uint64_t, std::uint64_t>> out;
    for (vid s = 0; s < 500; s += 61) {
      const StSweepStats r = st_sweep(g, s, 499 - s, 1e12, ws);
      out.emplace_back(ws.dist_of(499 - s), r.hops, r.relaxations);
    }
    return out;
  };
  const auto cold = run();
  const std::uint64_t after_cold = ws.alloc_events();
  EXPECT_GT(after_cold, 0u);
  EXPECT_EQ(run(), cold);
  EXPECT_EQ(ws.alloc_events(), after_cold);
}

TEST(StSweep, RejectsBadArguments) {
  const Graph g = make_grid(4, 4);
  SsspWorkspace ws;
  EXPECT_THROW((void)st_sweep(g, 16, 0, 10, ws), std::out_of_range);
  EXPECT_THROW((void)st_sweep(g, 0, 16, 10, ws), std::out_of_range);
  EXPECT_THROW((void)st_sweep(g, 0, 5, kInfWeight, ws), std::invalid_argument);
  EXPECT_THROW((void)st_sweep(g, 0, 5, -1, ws), std::invalid_argument);
  EXPECT_THROW((void)st_sweep(g, 0, kNoVertex, -1, ws), std::invalid_argument);
  // Untargeted, the limit may be infinite: every vertex settles.
  const StSweepStats r = st_sweep(g, 0, kNoVertex, kInfWeight, ws);
  EXPECT_EQ(ws.touched().size(), 16u);
  EXPECT_EQ(ws.dist_of(15), 6);
  EXPECT_EQ(r.keys, 7u);  // distances 0..6
}

}  // namespace
}  // namespace parsh
