// Tests for the Theorem 1.2 end-to-end engine: approximate distances
// against exact Dijkstra across topologies, weights and epsilons.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "graph/generators.hpp"
#include "graph/validation.hpp"
#include "random/rng.hpp"
#include "sssp/approx_query.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/hop_limited.hpp"

namespace parsh {
namespace {

/// End-to-end distortion envelope asserted by these tests. The engine's
/// guarantee composes rounding (1+zeta) with the per-level hopset
/// distortion, so the bound is a small constant factor rather than the
/// bare epsilon; 1.75 is far below what a broken construction produces
/// (which typically inflates by the hop budget, i.e. orders of magnitude).
constexpr double kEnvelope = 1.75;

class QueryTopologies
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  Graph graph() const {
    const auto [which, seed] = GetParam();
    switch (which) {
      case 0: return make_grid(20, 20);
      case 1: return with_uniform_weights(make_grid(18, 18), 1, 9, seed);
      case 2:
        return with_log_uniform_weights(
            ensure_connected(make_random_graph(400, 1400, seed)), 128.0, seed + 1);
      default: return make_path_with_chords(600, 30, seed);
    }
  }
};

TEST_P(QueryTopologies, EstimatesAreValidAndTight) {
  const auto [which, seed] = GetParam();
  (void)which;
  const Graph g = graph();
  ApproxShortestPaths::Params p;
  p.epsilon = 0.25;
  p.hopset.hopset.seed = seed + 7;
  const ApproxShortestPaths engine(g, p);
  Rng rng(seed ^ 0xfeedULL);
  int checked = 0;
  for (int q = 0; q < 12; ++q) {
    const vid s = static_cast<vid>(rng.uniform_int(2 * q, g.num_vertices()));
    const vid t = static_cast<vid>(rng.uniform_int(2 * q + 1, g.num_vertices()));
    const weight_t exact = st_distance(g, s, t);
    if (exact == kInfWeight) continue;
    const auto qr = engine.query(s, t);
    if (s == t) {
      EXPECT_EQ(qr.estimate, 0);
      continue;
    }
    ASSERT_NE(qr.estimate, kInfWeight) << "s=" << s << " t=" << t;
    EXPECT_GE(qr.estimate + 1e-6, exact);             // never undercuts
    EXPECT_LE(qr.estimate, exact * kEnvelope + 1e-6)  // within the envelope
        << "s=" << s << " t=" << t;
    ++checked;
  }
  EXPECT_GE(checked, 6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueryTopologies,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(ApproxQuery, IdenticalEndpointsAreZero) {
  const Graph g = make_grid(8, 8);
  const ApproxShortestPaths engine(g, {});
  EXPECT_EQ(engine.query(5, 5).estimate, 0);
}

TEST(ApproxQuery, DisconnectedPairsReportInfinity) {
  const Graph g = Graph::from_edges(6, {{0, 1, 1}, {1, 2, 1}, {3, 4, 1}, {4, 5, 1}});
  const ApproxShortestPaths engine(g, {});
  EXPECT_EQ(engine.query(0, 5).estimate, kInfWeight);
}

TEST(ApproxQuery, RoundsStayFarBelowGraphDiameterHops) {
  // The whole point of the hopset: query rounds are much smaller than
  // the plain BFS hop radius on long-diameter graphs.
  const Graph g = make_path_with_chords(2000, 50, 3);
  ApproxShortestPaths::Params p;
  p.epsilon = 0.5;
  p.hopset.hopset.gamma2 = 0.5;
  const ApproxShortestPaths engine(g, p);
  const auto qr = engine.query(0, 1999);
  ASSERT_NE(qr.estimate, kInfWeight);
  EXPECT_LT(qr.rounds, 1500u);  // far less than ~2000 plain hops over scales
}

TEST(ApproxQuery, DeadlineCutInsideASweepFoldsInTargetLabel) {
  // On a 2,304-vertex grid the sweeps settle hundreds of vertices, so
  // countdown deadlines land inside a sweep. A cut there folds in t's
  // tentative label when t has one: a real path, possibly heavier than
  // the answer (vertex 600 has one such cut).
  const Graph g = with_uniform_weights(make_grid(48, 48), 1, 8, 5);
  const ApproxShortestPaths engine(g, {});
  SsspWorkspace ws;
  std::uint64_t loose_labels = 0;
  std::uint64_t most_polls = 0;
  for (const vid t : {vid{100}, vid{600}, vid{1200}, g.num_vertices() - 1}) {
    const auto uncut = engine.query(0, t, ws);
    ASSERT_NE(uncut.estimate, kInfWeight);
    weight_t previous = kInfWeight;
    for (std::uint64_t checks = 0;; ++checks) {
      ApproxShortestPaths::QueryOptions opts;
      opts.deadline = Deadline::after_checks(checks);
      const auto got = engine.query(0, t, ws, opts);
      EXPECT_LE(got.estimate, previous) << "t=" << t << " checks=" << checks;
      previous = got.estimate;
      if (!got.deadline_exceeded) {
        most_polls = std::max(most_polls, checks);
        break;
      }
      EXPECT_GE(got.estimate, uncut.estimate) << "t=" << t << " checks=" << checks;
      if (got.estimate != kInfWeight && got.estimate > uncut.estimate) ++loose_labels;
    }
    EXPECT_EQ(previous, uncut.estimate) << t;
  }
  EXPECT_GT(most_polls, engine.num_scales());  // some polls fell inside a sweep
  EXPECT_GT(loose_labels, 0u);
}

TEST(ApproxQuery, TighterEpsilonGivesTighterEstimates) {
  const Graph g = with_uniform_weights(make_grid(15, 15), 1, 7, 5);
  ApproxShortestPaths::Params loose;
  loose.epsilon = 0.8;
  loose.hopset.hopset.epsilon = 0.8;
  loose.hopset.zeta = 0.4;
  ApproxShortestPaths::Params tight;
  tight.epsilon = 0.1;
  tight.hopset.hopset.epsilon = 0.1;
  tight.hopset.zeta = 0.05;
  const ApproxShortestPaths e_loose(g, loose);
  const ApproxShortestPaths e_tight(g, tight);
  Rng rng(4);
  double loose_sum = 0, tight_sum = 0;
  for (int q = 0; q < 10; ++q) {
    const vid s = static_cast<vid>(rng.uniform_int(2 * q, g.num_vertices()));
    const vid t = static_cast<vid>(rng.uniform_int(2 * q + 1, g.num_vertices()));
    if (s == t) continue;
    const weight_t exact = st_distance(g, s, t);
    loose_sum += e_loose.query(s, t).estimate / exact;
    tight_sum += e_tight.query(s, t).estimate / exact;
  }
  // Not strictly monotone pointwise (different clusterings), but the
  // aggregate must not be meaningfully worse at the tighter setting.
  EXPECT_LE(tight_sum, loose_sum + 0.05);
}

TEST(ApproxQuery, DeterministicAcrossConstructions) {
  const Graph g = make_grid(12, 12);
  ApproxShortestPaths::Params p;
  p.hopset.hopset.seed = 77;
  const ApproxShortestPaths a(g, p);
  const ApproxShortestPaths b(g, p);
  for (vid s : {0u, 5u, 100u}) {
    EXPECT_EQ(a.query(s, 143).estimate, b.query(s, 143).estimate);
  }
}

TEST(ApproxQuery, ReportsScalesAndPreprocessingCounters) {
  const Graph g = with_log_uniform_weights(make_grid(10, 10), 64.0, 3);
  const ApproxShortestPaths engine(g, {});
  EXPECT_GE(engine.hopset().scales.size(), 2u);
  EXPECT_GT(engine.preprocessing_rounds(), 0u);
}

TEST(ApproxQuery, RejectsScaleGraphsWithoutIntegerWeights) {
  // The query sweep keys its queue by distance: both constructors check
  // that every scale graph's weights are integers >= 1.
  const Graph g = with_uniform_weights(make_grid(8, 8), 1, 5, 2);
  ApproxShortestPaths::Params p;
  p.hopset.zeta = p.epsilon / 2.0;
  const ApproxShortestPaths engine(g, p);
  EXPECT_NO_THROW(ApproxShortestPaths(g.num_vertices(), engine.hopset(), p));
  // A fractional weight, and an integer one below 1.
  for (const double scale : {0.5, 0.0}) {
    WeightedHopset hs = engine.hopset();
    hs.scales.back().rounded =
        hs.scales.back().rounded.map_weights([&](weight_t w) { return w * scale; });
    EXPECT_THROW(ApproxShortestPaths(g.num_vertices(), std::move(hs), p),
                 InvalidGraphError);
  }
}

TEST(ApproxQuery, QueryAllMatchesPointQueriesFromAbove) {
  // query_all's estimate is the min over all scales; a point query may
  // stop at the first consistent scale, so query_all is never worse.
  const Graph g = with_uniform_weights(make_grid(12, 12), 1, 6, 3);
  const ApproxShortestPaths engine(g, {});
  const vid s = 0;
  const auto all = engine.query_all(s);
  for (vid t = 0; t < g.num_vertices(); t += 17) {
    const auto q = engine.query(s, t);
    if (q.estimate == kInfWeight) {
      EXPECT_EQ(all.estimate[t], kInfWeight);
    } else {
      EXPECT_LE(all.estimate[t], q.estimate + 1e-9) << t;
    }
  }
}

TEST(ApproxQuery, QueryAllIsValidUpperBoundOnExact) {
  const Graph g = with_uniform_weights(make_grid(10, 10), 1, 5, 7);
  const ApproxShortestPaths engine(g, {});
  const auto all = engine.query_all(3);
  const auto exact = dijkstra(g, 3);
  for (vid v = 0; v < g.num_vertices(); ++v) {
    if (exact.dist[v] == kInfWeight) continue;
    EXPECT_GE(all.estimate[v] + 1e-6, exact.dist[v]) << v;
    EXPECT_LE(all.estimate[v], exact.dist[v] * 1.75 + 1e-6) << v;
  }
  EXPECT_EQ(all.estimate[3], 0);
}

// --- Target-bounded sweeps. query() answers each scale with a
// --- label-setting sweep that stops once t settles (and reruns the
// --- hop-limited sweep when t's hop label is over budget). The contract
// --- is that the answer is untouched: estimate bits and the answering
// --- scale equal the same scale loop run over untargeted hop-limited
// --- sweeps, on every storage and degraded tier.

using Engine = ApproxShortestPaths;

std::uint64_t bits(weight_t w) { return std::bit_cast<std::uint64_t>(w); }

struct ReferenceAnswer {
  weight_t estimate = kInfWeight;
  std::size_t scale_used = 0;
};

/// The engine's scale loop, rebuilt from its public hopset over
/// untargeted hop_limited_sssp sweeps. `p` must be the engine's
/// normalized parameters.
ReferenceAnswer untargeted_query(const Engine& engine, const Engine::Params& p,
                                 vid n, vid s, vid t, std::size_t skip,
                                 const Deadline& deadline) {
  ReferenceAnswer out;
  if (s == t) {
    out.estimate = 0;
    return out;
  }
  const WeightedHopset& hs = engine.hopset();
  const double ratio =
      std::pow(static_cast<double>(std::max<vid>(n, 2)), p.hopset.eta);
  const std::uint64_t budget = std::min<std::uint64_t>(
      p.max_hops, static_cast<std::uint64_t>(std::ceil(hs.k_hops * p.hop_slack)) + 2);
  SsspWorkspace ws;
  for (std::size_t i = std::min(skip, hs.scales.size() - 1); i < hs.scales.size(); ++i) {
    if (deadline.expired()) break;
    const HopsetScale& sc = hs.scales[i];
    const weight_t dist_limit = sc.d * ratio * (1.0 + p.epsilon) / sc.w_hat + 1.0;
    const HopLimitedStats r =
        hop_limited_sssp(sc.rounded, s, budget, dist_limit, ws, deadline);
    const weight_t dt = ws.dist_of(t);
    if (dt != kInfWeight) {
      const weight_t est = dt * sc.w_hat;
      if (est < out.estimate) {
        out.estimate = est;
        out.scale_used = i;
      }
      if (!r.deadline_hit && est <= sc.d * ratio * (1.0 + p.epsilon)) break;
    }
    if (r.deadline_hit) break;
  }
  return out;
}

/// (topology, real weights): grid, RMAT or path-with-chords, with unit
/// weights or non-integer real ones.
class TargetBounded : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  [[nodiscard]] Graph graph() const {
    const auto [which, real] = GetParam();
    Graph g = which == 0   ? make_grid(14, 14)
              : which == 1 ? ensure_connected(make_rmat(256, 1024, 5))
                           : make_path_with_chords(400, 20, 5);
    if (!real) return g;
    // Log-uniform integers scaled by an irrational-ish factor: no weight
    // or path sum is an integer, so rounding ties differ from unit runs.
    return with_log_uniform_weights(g, 64.0, 9).map_weights(
        [](weight_t w) { return w * 0.7316 + 0.0419; });
  }
  [[nodiscard]] static Engine::Params params() {
    Engine::Params p;
    p.hopset.zeta = p.epsilon / 2.0;  // normalized: the hopset ctor reuses it
    p.hopset.hopset.seed = 11;
    return p;
  }
  /// The same engine with every scale graph on compressed adjacency.
  [[nodiscard]] static Engine compressed(const Engine& engine, vid n,
                                         const Engine::Params& p) {
    WeightedHopset hs = engine.hopset();
    for (HopsetScale& sc : hs.scales) sc.rounded = sc.rounded.compress_adjacency();
    return Engine(n, std::move(hs), p);
  }
  [[nodiscard]] static std::vector<Engine::QueryPair> pairs(vid n) {
    Rng rng(23);
    std::vector<Engine::QueryPair> out;
    for (int q = 0; q < 8; ++q) {
      out.emplace_back(static_cast<vid>(rng.uniform_int(2 * q, n)),
                       static_cast<vid>(rng.uniform_int(2 * q + 1, n)));
    }
    out.emplace_back(0, n - 1);
    return out;
  }
};

TEST_P(TargetBounded, QueryMatchesUntargetedScaleLoop) {
  const Graph g = graph();
  const vid n = g.num_vertices();
  const Engine::Params p = params();
  const Engine flat(g, p);
  const Engine packed = compressed(flat, n, p);
  ASSERT_FALSE(packed.hopset().scales.front().rounded.has_flat_adjacency());
  for (const Engine* engine : {&flat, &packed}) {
    SsspWorkspace ws;
    for (const auto& [s, t] : pairs(n)) {
      for (std::size_t skip = 0; skip < engine->num_scales(); ++skip) {
        Engine::QueryOptions opts;
        opts.skip_scales = skip;
        const auto got = engine->query(s, t, ws, opts);
        const auto want = untargeted_query(*engine, p, n, s, t, skip, Deadline::never());
        ASSERT_EQ(bits(got.estimate), bits(want.estimate))
            << "s=" << s << " t=" << t << " skip=" << skip;
        ASSERT_EQ(got.scale_used, want.scale_used)
            << "s=" << s << " t=" << t << " skip=" << skip;
      }
    }
  }
}

TEST_P(TargetBounded, FallbackMatchesUntargetedScaleLoop) {
  // A 2-hop budget is below most pairs' hop labels, so scales fall back to
  // the hop-limited rerun; the answer must still be the reference's.
  const Graph g = graph();
  const vid n = g.num_vertices();
  Engine::Params p = params();
  p.max_hops = 2;
  const Engine flat(g, p);
  const Engine packed = compressed(flat, n, p);
  for (const Engine* engine : {&flat, &packed}) {
    SsspWorkspace ws;
    std::uint64_t fallbacks = 0;
    for (const auto& [s, t] : pairs(n)) {
      for (std::size_t skip = 0; skip < engine->num_scales(); ++skip) {
        Engine::QueryOptions opts;
        opts.skip_scales = skip;
        const auto got = engine->query(s, t, ws, opts);
        const auto want = untargeted_query(*engine, p, n, s, t, skip, Deadline::never());
        ASSERT_EQ(bits(got.estimate), bits(want.estimate))
            << "s=" << s << " t=" << t << " skip=" << skip;
        ASSERT_EQ(got.scale_used, want.scale_used)
            << "s=" << s << " t=" << t << " skip=" << skip;
        fallbacks += got.fallbacks;
      }
    }
    EXPECT_GT(fallbacks, 0u);
  }
}

TEST_P(TargetBounded, DeadlineCutsAreFlaggedUpperBounds) {
  // Countdown deadlines cut the query after every possible poll. A cut
  // answer folds in the cut scale's label for t, the weight of a real
  // path: flagged, and infinite or no better than both the exact distance
  // and the uncut answer. More budget never makes the answer worse, and
  // the first uncut answer is the reference's, bit for bit. A query polls
  // once per scale plus once per 256 settled vertices, so it finishes
  // within num_scales * (1 + n / 256) polls.
  const Graph g = graph();
  const vid n = g.num_vertices();
  const Engine::Params p = params();
  const Engine flat(g, p);
  const Engine packed = compressed(flat, n, p);
  const std::uint64_t max_polls = flat.num_scales() * (1 + n / 256);
  for (const Engine* engine : {&flat, &packed}) {
    SsspWorkspace ws;
    for (const auto& [s, t] : pairs(n)) {
      const weight_t exact = st_distance(g, s, t);
      const auto uncut = engine->query(s, t, ws);
      ASSERT_EQ(uncut.fallbacks, 0u);  // the bound below assumes no rerun
      const auto want = untargeted_query(*engine, p, n, s, t, 0, Deadline::never());
      weight_t previous = kInfWeight;
      for (std::uint64_t checks = 0;; ++checks) {
        ASSERT_LE(checks, max_polls) << "s=" << s << " t=" << t;
        Engine::QueryOptions opts;
        opts.deadline = Deadline::after_checks(checks);
        const auto got = engine->query(s, t, ws, opts);
        ASSERT_LE(got.estimate, previous)
            << "s=" << s << " t=" << t << " checks=" << checks;
        previous = got.estimate;
        if (!got.deadline_exceeded) {
          ASSERT_EQ(bits(got.estimate), bits(want.estimate))
              << "s=" << s << " t=" << t << " checks=" << checks;
          ASSERT_EQ(got.scale_used, want.scale_used)
              << "s=" << s << " t=" << t << " checks=" << checks;
          break;
        }
        if (got.estimate == kInfWeight) continue;
        EXPECT_GE(got.estimate + 1e-6, exact) << "s=" << s << " t=" << t;
        EXPECT_GE(got.estimate, uncut.estimate) << "s=" << s << " t=" << t;
      }
    }
  }
}

TEST_P(TargetBounded, TargetDistanceIsExactAtEveryHopBudget) {
  // dist_of(t) after h target-bounded rounds is bit-equal to the
  // untargeted sweep's dist^h(t), for every h, with and without a cap.
  const Graph g = graph();
  const vid n = g.num_vertices();
  SsspWorkspace bounded;
  SsspWorkspace plain;
  for (const auto& [s, t] : pairs(n)) {
    const weight_t exact = st_distance(g, s, t);
    for (const weight_t limit : {kInfWeight, 0.6 * exact}) {
      std::uint64_t bounded_work = 0;
      std::uint64_t plain_work = 0;
      for (std::uint64_t h = 1; h <= 48; ++h) {
        const auto b =
            hop_limited_sssp(g, s, h, limit, bounded, Deadline::never(), t);
        const auto u = hop_limited_sssp(g, s, h, limit, plain);
        ASSERT_EQ(bits(bounded.dist_of(t)), bits(plain.dist_of(t)))
            << "s=" << s << " t=" << t << " h=" << h << " limit=" << limit;
        ASSERT_LE(b.rounds, u.rounds);
        bounded_work += b.relaxations;
        plain_work += u.relaxations;
      }
      EXPECT_LE(bounded_work, plain_work);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, TargetBounded,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Bool()));

TEST(TargetBoundedSweep, RejectsOutOfRangeTarget) {
  const Graph g = make_grid(4, 4);
  SsspWorkspace ws;
  EXPECT_THROW((void)hop_limited_sssp(g, 0, 4, kInfWeight, ws, Deadline::never(), 16),
               std::out_of_range);
  EXPECT_THROW((void)hops_to_approx(g, 0, 16, 6.0, 0.1, 8), std::out_of_range);
}

}  // namespace
}  // namespace parsh
