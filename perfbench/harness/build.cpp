// build.
//
// Offline library use at a size that keeps the parallel runtime busy: the
// EST unweighted spanner (Algorithm 2) and the weighted spanner (Theorem
// 3.3) on a ~1M-edge RMAT graph, then the Theorem 1.2 engine on a
// weighted grid. The serving workloads' graphs are small enough to drain
// through the sequential round fast path; this one is not.
#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "graph/generators.hpp"
#include "server/server.hpp"
#include "spanner/spanner.hpp"
#include "spanner/verify.hpp"
#include "sssp/approx_query.hpp"
#include "sssp/dijkstra.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace parsh;
using namespace parsh::server;

namespace {

// The graphs and the builds' algorithm seeds are fixed; --seed draws the
// samples the stretch checks use. A run's 60 spanners from seed-drawn
// algorithm seeds still differed by 12% in mean size across five seeds,
// and their build time with it; drawing the graphs too added more.
constexpr std::uint64_t kGraphSeed = 1;
constexpr std::uint64_t kAlgoSeed = 1;
constexpr std::uint64_t kRmatLog2n = 17;    // 2^17 vertices
constexpr std::uint64_t kRmatEdges = 1'000'000;  // generated; ~0.93M after dedup
constexpr double kWeightRatio = 1000;       // weighted spanner: log-uniform in [1, 1e3]
constexpr vid kSide = 150;                  // engine: kSide x kSide grid
constexpr std::uint64_t kMaxWeight = 8;     // grid weights uniform in [1, 8]
constexpr std::size_t kPasses = 2;
constexpr std::size_t kSpannerSeeds = 30;
constexpr std::size_t kWSpannerSeeds = 4;
constexpr std::size_t kEngineSeeds = 4;
constexpr std::size_t kStretchReps = 3;     // spanners per kind checked for stretch
constexpr vid kStretchSamples = 50;
constexpr std::size_t kChecks = 20;         // engine answers checked against Dijkstra
// Traced run only. A pair on this grid takes ~40 ms, so the engine is
// served one pair per request at a rate one worker keeps up with, and the
// update layers take a few batches (~1.6 s each through all replays).
constexpr double kServeRps = 10;
constexpr std::size_t kServeRequests = 80;
constexpr std::size_t kServeWarmup = 10;
constexpr std::size_t kProbeBatches = 4;
// setup_s is the median of this many set-ups; each generates the 1M-edge
// RMAT, ~0.7 s, where the serving workloads' take under 0.1 s.
constexpr std::size_t kSetupReps = 3;

}  // namespace

void run_build(const Options& o, bool trace, Tracer& tracer, Report& r) {
  const std::uint64_t seed = o.count("seed");
  // The traced run serves the grid's engine to one open-loop client.
  r.identity["client_connections"] = trace ? "1" : "0";
  const double k = kSpannerK;
  ApproxShortestPaths::Params p;
  p.epsilon = kEpsilon;
  p.hopset.hopset.seed = seed;

  Graph rmat, rmat_w, road;
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    rmat = make_rmat(static_cast<vid>(1) << kRmatLog2n, kRmatEdges, kGraphSeed);
    rmat_w = with_log_uniform_weights(rmat, kWeightRatio, kGraphSeed + 5);
    road = with_uniform_weights(make_grid(kSide, kSide), 1, kMaxWeight, kGraphSeed + 1);
    setup_s.push_back(now_s() - t0);
  }
  const double n = static_cast<double>(rmat.num_vertices());

  // Every kind of build runs over its own fixed set of algorithm seeds. On
  // these low-diameter graphs one EST clustering has a few huge clusters,
  // so a single spanner's size and cost swing by 3x with its random
  // shifts; a run reports means over many draws. The set runs kPasses
  // times, and a seed's time is its fastest pass: host stalls only ever
  // add time, and a round waits for its slowest thread. The first
  // kStretchReps spanners of each kind are checked for stretch against
  // the constants the unit tests certify (6k+1 unweighted, 12k weighted;
  // Theorems 1.1 and 3.3 give O(k)).
  const Rng algo = Rng(kAlgoSeed).split(0xa190);
  const vid samples = kStretchSamples;
  // With --trace 1, a span around every build.
  SpanRecorder spans(tracer);
  auto timed = [&](const char* name, std::size_t rep, auto&& build) {
    const double t0 = now_s();
    const std::int64_t sp = trace ? spans.begin(name, rep) : -1;
    auto out = build();
    if (trace) spans.end(sp);
    return std::make_pair(std::move(out), now_s() - t0);
  };
  const double inf = std::numeric_limits<double>::infinity();
  double su_max = 1.0, sw_max = 1.0;
  std::vector<double> spanner_s(kSpannerSeeds, inf), wspanner_s(kWSpannerSeeds, inf),
      engine_s(kEngineSeeds, inf), us_edges, ws_edges;
  std::vector<Edge> first_spanner;
  double query_stretch = 1.0;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    for (std::size_t rep = 0; rep < kSpannerSeeds; ++rep) {
      const auto [us, dt] = timed("build.unweighted_spanner", rep,
                                  [&] { return unweighted_spanner(rmat, k, algo.bits(rep)); });
      spanner_s[rep] = std::min(spanner_s[rep], dt);
      if (pass > 0) {
        if (rep == 0) {
          r.check(us.edges == first_spanner, "a repeated build gives the identical spanner");
        }
        continue;
      }
      us_edges.push_back(static_cast<double>(us.edges.size()));
      if (rep == 0) first_spanner = us.edges;
      if (rep < kStretchReps) {
        const double s = sampled_edge_stretch(rmat, us.edges, samples, seed + 3 + rep);
        su_max = std::max(su_max, s);
        r.check(s <= 6.0 * k + 1.0 && is_subgraph(rmat, us.edges),
                "unweighted spanner stretch " + std::to_string(s));
      }
    }
    for (std::size_t rep = 0; rep < kWSpannerSeeds; ++rep) {
      const auto [ws, dt] = timed("build.weighted_spanner", rep, [&] {
        return weighted_spanner(rmat_w, k, algo.bits(1000 + rep));
      });
      wspanner_s[rep] = std::min(wspanner_s[rep], dt);
      if (pass > 0) continue;
      ws_edges.push_back(static_cast<double>(ws.edges.size()));
      if (rep < kStretchReps) {
        const double s = sampled_edge_stretch(rmat_w, ws.edges, samples, seed + 103 + rep);
        sw_max = std::max(sw_max, s);
        r.check(s <= 12.0 * k && is_subgraph(rmat_w, ws.edges),
                "weighted spanner stretch " + std::to_string(s));
      }
    }
    for (std::size_t rep = 0; rep < kEngineSeeds; ++rep) {
      p.hopset.hopset.seed = algo.bits(2000 + rep);
      const auto [engine, dt] =
          timed("build.engine", rep, [&] { return ApproxShortestPaths(road, p); });
      engine_s[rep] = std::min(engine_s[rep], dt);
      if (pass > 0 || rep > 0) continue;
      // Sampled engine answers against Dijkstra.
      const double envelope = (1.0 + p.epsilon) * (1.0 + p.hopset.zeta);
      const Rng pick = Rng(seed).split(0xc4ec);
      for (std::size_t q = 0; q < kChecks; ++q) {
        const vid src = static_cast<vid>(pick.uniform_int(2 * q, road.num_vertices()));
        const vid dst = static_cast<vid>(pick.uniform_int(2 * q + 1, road.num_vertices()));
        const weight_t exact = dijkstra(road, src).dist[dst];
        const double est = engine.query(src, dst).estimate;
        if (exact > 0) query_stretch = std::max(query_stretch, est / exact);
        r.check(est + 1e-9 >= exact && est <= envelope * exact + 1e-9,
                "engine answer " + std::to_string(src) + "->" + std::to_string(dst));
      }
    }
  }
  r.ops(kPasses * (spanner_s.size() + wspanner_s.size() + engine_s.size()), 0);

  if (!trace) {
    r.set("setup_s", median(setup_s), "s");
    // One offline build of each structure, back to back.
    r.set("latency_ms", (mean(spanner_s) + mean(wspanner_s) + mean(engine_s)) * 1e3, "ms");
    r.set("throughput_per_s", static_cast<double>(rmat.num_edges()) / mean(spanner_s), "1/s");
    r.set("spanner_s", mean(spanner_s), "s");
    r.set("wspanner_s", mean(wspanner_s), "s");
    r.set("engine_build_s", mean(engine_s), "s");
    r.samples["spanner_s"] = spanner_s.size();
    r.samples["wspanner_s"] = wspanner_s.size();
    r.samples["engine_build_s"] = engine_s.size();
    r.set("spanner_size_ratio", mean(us_edges) / std::pow(n, 1.0 + 1.0 / k), "ratio");
    // The spanners' stretch is an integer-valued maximum over a random
    // sample (5, 6 or 7 on the same inputs), too coarse for a bound; it is
    // checked above and reported per layer. The engine's answers carry
    // the end-to-end stretch.
    r.set("stretch_max", query_stretch, "ratio");
    r.set("ok_frac", 1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted),
          "fraction");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  r.set("graph.generate_s", median(setup_s), "s");
  r.set("spanner.unweighted_ms", mean(spanner_s) * 1e3, "ms");
  r.set("spanner.weighted_ms", mean(wspanner_s) * 1e3, "ms");
  r.set("spanner.edges", mean(us_edges), "count");
  r.set("spanner.weighted_edges", mean(ws_edges), "count");
  r.set("spanner.stretch_max", su_max, "ratio");
  r.set("spanner.weighted_stretch_max", sw_max, "ratio");

  drive_cluster_and_hopset(rmat, k, kClusterReps, road, p.hopset, seed, spans, r);

  // The server layer: the grid's engine served open-loop over loopback
  // at a fixed rate, then the same requests replayed through the layers.
  p.hopset.hopset.seed = algo.bits(2000);
  const ApproxShortestPaths engine(road, p);
  const std::vector<PairList> stream =
      make_request_stream(road.num_vertices(), kServeRequests + kServeWarmup, 1, 0, 1.0, 0,
                          seed + 2);
  ServerConfig cfg;
  cfg.query_workers = o.count("workers");
  cfg.admission.workers = cfg.query_workers;
  cfg.admission.default_deadline_ms = static_cast<double>(kDeadlineMs);
  QueryServer srv(road, engine, cfg);
  r.check(srv.listen_tcp(0).ok(), "server listens on loopback");
  const double drain_s = kDeadlineMs / 1e3 + 2.0;
  (void)run_open_loop(srv.port(), stream, kServeRequests, kServeWarmup, kServeRps, kDeadlineMs,
                      1e9, nullptr, drain_s);
  const StatsSnapshot before = srv.stats();
  const OpenLoopRun run = run_open_loop(srv.port(), stream, 0, kServeRequests, kServeRps,
                                        kDeadlineMs, 1e9, nullptr, drain_s);
  const StatsSnapshot served = stats_delta(before, srv.stats());
  r.check(!run.transport_error && run.full_count() == run.sent, "served requests answered");
  for (std::size_t i = 0; i < run.sent && i < kChecks; ++i) {
    const auto [src, dst] = stream[i][0];
    r.check(run.full(i) && run.responses[i].answers[0].estimate ==
                               static_cast<double>(engine.query(src, dst).estimate),
            "served answer equals the engine's");
  }
  const std::vector<double> lat = run.latencies_ms(false);
  r.set("gen.lateness_p99_ms", quantile(run.lateness_ms(), 0.99), "ms");
  r.samples["gen.lateness_p99_ms"] = run.sent;
  trace_requests(tracer, run);
  const std::vector<double> rtt_us = ping_rtt_us(srv.port(), seed, r);
  report_server_counters(r, served, 0);
  srv.stop();
  r.check(srv.open_connections() == 0, "no leaked connections after stop");
  const QueryReplay q =
      replay_queries(engine, request_prefix(stream, run.sent, kReplayPairs), spans, r);
  report_query_unaccounted(median(lat), rtt_us, q, r);

  drive_update_layers(road, kMaxWeight, kProbeBatches, p, seed, o.str("workdir"), spans, r);
  report_span_cost(spans, r);
  report_self_times(r, tracer);
}

}  // namespace perfbench
