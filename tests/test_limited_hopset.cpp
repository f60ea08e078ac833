// Tests for the Appendix C limited-hopset iteration (Theorem C.2).
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "graph/generators.hpp"
#include "hopset/limited_hopset.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/hop_limited.hpp"

namespace parsh {
namespace {

LimitedHopsetParams small_params(std::uint64_t seed) {
  LimitedHopsetParams p;
  p.alpha = 0.6;
  p.epsilon = 0.3;
  p.seed = seed;
  p.max_iterations = 2;
  return p;
}

TEST(LimitedHopset, EmptyGraphYieldsNothing) {
  EXPECT_TRUE(build_limited_hopset(Graph(), small_params(1)).edges.empty());
}

TEST(LimitedHopset, EdgeWeightsAreUpperBoundsOnDistances) {
  // Edges carry (rounded-up) path weights: never below the true metric.
  const Graph g = make_path_with_chords(400, 10, 3);
  const LimitedHopsetResult r = build_limited_hopset(g, small_params(5));
  for (const Edge& e : r.edges) {
    const weight_t exact = st_distance(g, e.u, e.v);
    ASSERT_NE(exact, kInfWeight);
    // The validity property: never undercut the true metric. (No per-edge
    // upper bound is promised — edges built at scales far above a pair's
    // distance carry granular slack and are simply never the minimum for
    // short queries; AugmentedMetricApproximatesOriginal covers that.)
    EXPECT_GE(e.w + 1e-6, exact);
    EXPECT_TRUE(std::isfinite(e.w));
    EXPECT_GT(e.w, 0);
  }
}

TEST(LimitedHopset, AugmentedMetricApproximatesOriginal) {
  const Graph g = make_path_with_chords(500, 20, 7);
  const LimitedHopsetResult r = build_limited_hopset(g, small_params(9));
  const Graph aug = g.with_extra_edges(r.edges);
  const auto d_g = dijkstra(g, 0);
  const auto d_aug = dijkstra(aug, 0);
  for (vid v = 0; v < g.num_vertices(); ++v) {
    if (d_g.dist[v] == kInfWeight) continue;
    EXPECT_LE(d_aug.dist[v], d_g.dist[v] + 1e-9) << v;  // shortcuts only help
    // Upper-bound weights cannot *create* shorter paths than reality.
    EXPECT_GE(d_aug.dist[v] + 1e-6, d_g.dist[v] * 0.999) << v;
  }
}

TEST(LimitedHopset, ReducesHopsOnLongPaths) {
  const Graph g = make_path(1000);
  const LimitedHopsetResult r = build_limited_hopset(g, small_params(11));
  ASSERT_FALSE(r.edges.empty());
  const Graph aug = g.with_extra_edges(r.edges);
  // Reaching (1.5x) the far end must need far fewer hops than 999.
  const std::uint64_t hops = hops_to_approx(aug, 0, 999, 999.0, 0.5, 999);
  EXPECT_LT(hops, 700u);
}

TEST(LimitedHopset, IterationsRespectCap) {
  const Graph g = make_path(300);
  LimitedHopsetParams p = small_params(13);
  p.max_iterations = 1;
  const LimitedHopsetResult r = build_limited_hopset(g, p);
  EXPECT_LE(r.iterations, 1);
}

TEST(LimitedHopset, DeterministicInSeed) {
  const Graph g = make_path_with_chords(300, 10, 1);
  const auto a = build_limited_hopset(g, small_params(21));
  const auto b = build_limited_hopset(g, small_params(21));
  EXPECT_EQ(a.edges, b.edges);
}

TEST(LimitedHopset, ReturnsEachPairOnce) {
  // Scales and iterations rediscover the same pairs; the result carries
  // one edge per unordered pair (u < v, sorted), at the pair's lightest
  // weight, so augmenting with it is unchanged.
  for (const auto& [g, seed] : {std::pair(make_path_with_chords(400, 10, 3), 5u),
                                std::pair(make_path(1000), 11u)}) {
    const LimitedHopsetResult r = build_limited_hopset(g, small_params(seed));
    ASSERT_FALSE(r.edges.empty());
    for (std::size_t i = 0; i < r.edges.size(); ++i) {
      const Edge& e = r.edges[i];
      ASSERT_LT(e.u, e.v) << i;
      if (i > 0) {
        const Edge& prev = r.edges[i - 1];
        ASSERT_TRUE(prev.u < e.u || (prev.u == e.u && prev.v < e.v)) << i;
      }
    }
  }
}

}  // namespace
}  // namespace parsh
