// Push-vs-pull bit-equality and direction-flip coverage for the
// direction-optimizing frontier engine (parallel/bucket_engine.hpp).
//
// The FrontierRelaxer's contract: a pull (bitmap) round emits, per
// candidate vertex, exactly the lexicographic minimum of the proposals the
// push round would have emitted for it — the suppressed proposals are
// strict losers of the very min-reduce that resolves them — so
// est_cluster's OUTPUT (the clustering) is bit-identical across forced
// push, forced pull, the organic hysteresis, and one thread vs a real
// 4-wide team. Work-proxy counters (est work) are direction-DEPENDENT by
// design (push pops stale-only buckets pull never creates) and are
// deliberately not compared across directions; rounds are
// direction-independent and are.
//
// Suites here run under the TSan CI job (no *Warm* name) and the
// PARSH_FORCE_PULL ctest lane; a RoundPolicy that names its direction
// overrides the env default, so both directions are exercised regardless.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "cluster/cluster_stats.hpp"
#include "cluster/est_cluster.hpp"
#include "graph/generators.hpp"
#include "parallel/bucket_engine.hpp"
#include "parallel/parallel_for.hpp"
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

/// Graphs whose dense rounds make pull worthwhile AND whose frontier sizes
/// straddle the organic switch threshold: a random graph (frontiers grow
/// through m/20 then shrink back through m/64 — both hysteresis edges
/// fire), a star and a hub graph (one round covers nearly every vertex,
/// and pull candidates have huge degree).
std::vector<std::pair<const char*, Graph>> direction_graphs(std::uint64_t seed) {
  std::vector<std::pair<const char*, Graph>> out;
  out.emplace_back("random", ensure_connected(make_random_graph(6000, 36000, seed)));
  out.emplace_back("star", make_star(4000));
  out.emplace_back("hubs", make_hubs(8000, 3, seed + 1));
  return out;
}

class DirectionOptimizing : public ::testing::TestWithParam<std::uint64_t> {};

const RoundPolicy kPush{.direction = RoundPolicy::Direction::kPush};
const RoundPolicy kPull{.direction = RoundPolicy::Direction::kPull};

TEST_P(DirectionOptimizing, EstClusterPushVsPullAcrossWidths) {
  for (const auto& [name, g] : direction_graphs(GetParam())) {
    SCOPED_TRACE(name);
    EstClusterWorkspace push_ws;
    push_ws.set_round_policy(kPush);
    const Clustering pushed =
        at_threads(1, [&] { return est_cluster(g, 0.5, GetParam(), push_ws); });
    EXPECT_EQ(push_ws.pull_rounds(), 0u);
    EXPECT_TRUE(validate_clustering(g, pushed)) << name;
    for (int width : {1, 4}) {
      EstClusterWorkspace ws;
      ws.set_round_policy(kPull);
      const Clustering pulled =
          at_threads(width, [&] { return est_cluster(g, 0.5, GetParam(), ws); });
      EXPECT_GT(ws.pull_rounds(), 0u) << name << " @" << width;
      EXPECT_GT(ws.pull_edges_scanned(), 0u) << name << " @" << width;
      expect_same_clustering(pulled, pushed);
    }
  }
}

TEST_P(DirectionOptimizing, OrganicHysteresisFlipsAndMatchesForcedRuns) {
  // Unforced runs on the random graph must trip the enter threshold
  // organically, run some rounds in each direction, produce identical
  // output to the forced push run, and make the SAME direction decisions
  // at every thread count (the heuristic only reads round totals and m).
  const Graph g = ensure_connected(make_random_graph(6000, 36000, GetParam()));
  EstClusterWorkspace push_ws;
  push_ws.set_round_policy(kPush);
  const Clustering pushed =
      at_threads(1, [&] { return est_cluster(g, 0.5, GetParam(), push_ws); });
  std::vector<std::uint64_t> pull_rounds_by_width;
  for (int width : {1, 4}) {
    EstClusterWorkspace ws;
    // Naming the direction overrides a PARSH_FORCE_PULL env default.
    ws.set_round_policy({.direction = RoundPolicy::Direction::kAuto});
    const Clustering organic =
        at_threads(width, [&] { return est_cluster(g, 0.5, GetParam(), ws); });
    EXPECT_GT(ws.pull_rounds(), 0u) << "@" << width;
    EXPECT_LT(ws.pull_rounds(), pushed.rounds) << "@" << width;  // sparse rounds stayed push
    expect_same_clustering(organic, pushed);
    pull_rounds_by_width.push_back(ws.pull_rounds());
  }
  EXPECT_EQ(pull_rounds_by_width[0], pull_rounds_by_width[1]);
}

/// Minimal TeamLike for driving the relaxer directly (sequential loop).
struct InlineTeam {
  template <typename F>
  void loop(std::size_t lo, std::size_t hi, std::size_t /*grain*/, F f) {
    for (std::size_t i = lo; i < hi; ++i) f(i);
  }
};

TEST_P(DirectionOptimizing, HysteresisEntersHighExitsLow) {
  // Drive the relaxer directly with a synthetic round sequence: enter at
  // >= m/enter_div, stay until < m/exit_div — totals between the two
  // bounds keep the current direction (no thrashing) — and the n/2
  // profitability floor (kPullFloorDivisor) gates both conditions: a
  // round whose total clears the hysteresis band but not the floor still
  // runs push (the Theta(n) candidate sweep could not pay for itself).
  FrontierRelaxer relaxer;
  // Organic direction (overriding a PARSH_FORCE_PULL env default).
  relaxer.set_policy({.direction = RoundPolicy::Direction::kAuto});
  relaxer.set_pull_divisors(10, 100);  // m=1000: enter at 100, exit below 10
  relaxer.begin_run();
  InlineTeam team;
  const std::size_t n = 64;  // profitability floor n/2 = 32
  const std::uint64_t m = 1000;
  std::vector<vid> frontier = {1, 2, 3};
  std::uint64_t degree = 0;
  auto run_round = [&](std::uint64_t per_vertex_degree) {
    degree = per_vertex_degree;
    return relaxer.relax(
        team, frontier, n, m,
        [&](std::size_t) { return static_cast<std::size_t>(degree); },
        [&](std::size_t, std::size_t, std::size_t) {},
        [&](vid) -> std::size_t { return 0; });
  };
  EXPECT_FALSE(run_round(20).pull);   // 60 < 100: below the enter bound
  EXPECT_TRUE(run_round(40).pull);    // 120 >= 100: enters pull
  EXPECT_TRUE(run_round(20).pull);    // 60 in [32, 100): hysteresis holds
  EXPECT_FALSE(run_round(10).pull);   // 30 >= exit 10 but < floor 32: exits
  EXPECT_TRUE(run_round(40).pull);    // 120 >= 100: re-enters
  EXPECT_FALSE(run_round(3).pull);    // 9 < 10: exits below the band too
  EXPECT_FALSE(run_round(20).pull);   // 60 < 100: does not re-enter
  EXPECT_EQ(relaxer.pull_rounds(), 3u);  // enter + hold + re-enter
  relaxer.begin_run();                // fresh run resets the state machine
  EXPECT_FALSE(run_round(20).pull);
}

TEST(DirectionEnvLane, ForcePullEnvSeedsTheDefaultPolicy) {
  // The PARSH_FORCE_PULL ctest lane is only a distinct lane if the env
  // read survives: a default-policy workspace must run pull rounds on a
  // graph far too small to trip the heuristic, and a policy that names
  // push must still override it.
  const char* env = std::getenv("PARSH_FORCE_PULL");
  if (env == nullptr || env[0] == '\0' || env[0] == '0') {
    GTEST_SKIP() << "PARSH_FORCE_PULL is not set";
  }
  EXPECT_EQ(RoundPolicy{}.direction, RoundPolicy::Direction::kPull);
  const Graph g = make_path(64);
  EstClusterWorkspace cws;
  est_cluster(g, 0.5, 1, cws);
  EXPECT_GT(cws.pull_rounds(), 0u);
  EstClusterWorkspace push_cws;
  push_cws.set_round_policy(kPush);
  est_cluster(g, 0.5, 1, push_cws);
  EXPECT_EQ(push_cws.pull_rounds(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectionOptimizing,
                         ::testing::Values<std::uint64_t>(1, 2, 3));

}  // namespace
}  // namespace parsh
