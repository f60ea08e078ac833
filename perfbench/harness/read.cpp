// read-uniform and read-hot.
//
// A static ApproxShortestPaths engine over a weighted grid (road-like:
// high diameter, so the hopset matters) is served by a QueryServer on
// loopback. The timed part only queries: no graph, hopset or WAL work
// runs while latency is measured.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "graph/generators.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "sssp/approx_query.hpp"
#include "sssp/dijkstra.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace parsh;
using namespace parsh::server;

namespace {

// The served graph, the engine's algorithm seed and read-hot's hot set are
// fixed; --seed draws the rest of the request stream. Engines built from
// different seeds differed by up to ~40% in end-to-end latency
// (README.md), and a hot set's top vertex takes a sixth of all sources:
// either would swamp the change under test.
constexpr std::uint64_t kGraphSeed = 1;
constexpr std::uint64_t kEngineSeed = 1;
constexpr std::uint64_t kHotSetSeed = 1;
constexpr std::size_t kSetupReps = 15;    // setup_s is their median
constexpr vid kSide = 48;                 // kSide x kSide grid
constexpr std::uint64_t kMaxWeight = 8;   // edge weights uniform in [1, 8]
constexpr std::size_t kPairsPerRequest = 2;
constexpr vid kHotSet = 256;              // read-hot: Zipf sources over this many
constexpr double kZipfS = 1.0;
constexpr double kWarmupS = 2;
constexpr std::size_t kChecks = 200;        // answers checked against Dijkstra
constexpr std::size_t kProbeBatches = 16;   // traced run: update batches on the grid

// Rate search: rung i offers kLadderStart * kLadderStep^i requests/s for
// kRungRequests requests. It climbs from rung 0 until a rung fails, at
// most kMaxRungsUp rungs, then climbs on from the last rung that passed in
// kFineSteps finer steps up to the one that failed; when rung 0 fails it
// steps down to the offered rate instead. The coarse ladder alone split
// five seeds' results 2:3 between two rungs 15% apart.
constexpr double kP99LimitMs = 100;
constexpr double kLadderStart = 450;
constexpr double kLadderStep = 1.07;
constexpr int kFineSteps = 3;  // 1.07^(1/3): 2.3% apart
constexpr std::size_t kMaxRungsUp = 40;  // 450 * 1.07^40 ~ 6700 requests/s
constexpr std::size_t kRungRequests = 1000;
constexpr std::size_t kRungSlices = 16;  // distinct stream slices the rungs cycle through

struct ReadSetup {
  Graph graph;
  std::unique_ptr<ApproxShortestPaths> engine;
  double generate_s = 0;
  double build_s = 0;
};

/// Input graph generation plus preprocessing to ready-to-serve: what
/// setup_s times.
ReadSetup setup_read(const ApproxShortestPaths::Params& p) {
  ReadSetup s;
  const double t0 = now_s();
  s.graph = with_uniform_weights(make_grid(kSide, kSide), 1, kMaxWeight, kGraphSeed);
  const double t1 = now_s();
  s.engine = std::make_unique<ApproxShortestPaths>(s.graph, p);
  s.generate_s = t1 - t0;
  s.build_s = now_s() - t1;
  return s;
}

/// One open-loop rung of the rate search: passes when p99 (misses count
/// as +inf) is under the limit, at least 99% of requests are answered in
/// full, and the generator kept up.
bool rung_passes(const OpenLoopRun& run) {
  if (run.transport_error || run.sent == 0) return false;
  const double full = static_cast<double>(run.full_count()) / static_cast<double>(run.sent);
  return percentile_supported(run.sent, 0.99) &&
         quantile(run.latencies_ms(true), 0.99) <= kP99LimitMs && full >= 0.99 &&
         !lateness_grows(run.lateness_ms(), 2.0);
}

/// throughput_per_s: the highest ladder or fine-step rate that passes. A
/// failed rung is run once more, so a single host stall cannot decide it;
/// each rung takes the next slice of the stream from `first`. Returns 0 when not
/// even the offered rate passes, and sets *capped when the top rung
/// passed (the true capacity is above the result).
double search_max_rps(std::uint16_t port, const std::vector<PairList>& stream,
                      std::size_t first, double offered_rps, bool* capped) {
  std::size_t slice = 0;
  const double drain_s = kDeadlineMs / 1e3 + 2.0;
  auto passes = [&](double rate) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const OpenLoopRun rung =
          run_open_loop(port, stream, first + (slice++ % kRungSlices) * kRungRequests,
                        kRungRequests, rate, kDeadlineMs, 1e9, nullptr, drain_s);
      if (rung_passes(rung)) return true;
    }
    return false;
  };
  *capped = false;
  if (passes(kLadderStart)) {
    double best = kLadderStart;
    for (std::size_t i = 1; i <= kMaxRungsUp; ++i) {
      const double rate = kLadderStart * std::pow(kLadderStep, static_cast<double>(i));
      if (!passes(rate)) {
        const double passed = best;
        for (int j = 1; j < kFineSteps; ++j) {
          const double fine = passed * std::pow(kLadderStep, static_cast<double>(j) / kFineSteps);
          if (!passes(fine)) break;
          best = fine;
        }
        return best;
      }
      best = rate;
    }
    *capped = true;
    return best;
  }
  // Capacity below the ladder's start: the same steps downwards, ending
  // with a rung at the offered rate itself.
  for (int i = 1;; ++i) {
    const double rate =
        std::max(offered_rps, kLadderStart / std::pow(kLadderStep, static_cast<double>(i)));
    if (passes(rate)) return rate;
    if (rate <= offered_rps) return 0;
  }
}

}  // namespace

void run_read(const Options& o, bool hot, bool trace, Tracer& tracer, Report& r) {
  const std::uint64_t seed = o.count("seed");
  const double seconds = o.num("seconds");
  const double rps = o.num("rps");
  r.identity["client_connections"] = "1";
  const std::size_t main_requests = OpenLoopSchedule{0, rps}.count_within(seconds);
  const std::size_t warmup_requests = OpenLoopSchedule{0, rps}.count_within(kWarmupS);
  // Stream layout: timed part, the rate search's slices, warm-up. The
  // stream is the harness's own input and is made outside setup_s.
  const std::size_t rungs_first = main_requests;
  const std::size_t warmup_first = rungs_first + kRungSlices * kRungRequests;
  const std::vector<PairList> stream =
      make_request_stream(kSide * kSide, warmup_first + warmup_requests, kPairsPerRequest,
                          hot ? kHotSet : 0, kZipfS, kHotSetSeed, seed + 2);

  ApproxShortestPaths::Params p;
  p.epsilon = kEpsilon;
  p.hopset.hopset.seed = kEngineSeed;

  // Set-up repeated; the median is the set-up time, the last one is served.
  std::vector<double> setup_s, gen_s;
  ReadSetup s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    s = setup_read(p);
    setup_s.push_back(s.generate_s + s.build_s);
    gen_s.push_back(s.generate_s);
  }

  ServerConfig cfg;
  cfg.query_workers = o.count("workers");
  cfg.admission.workers = cfg.query_workers;
  cfg.admission.default_deadline_ms = static_cast<double>(kDeadlineMs);
  QueryServer srv(s.graph, *s.engine, cfg);
  r.check(srv.listen_tcp(0).ok(), "server listens on loopback");
  const double drain_s = kDeadlineMs / 1e3 + 2.0;

  // Warm-up at the offered rate (workspaces, caches, the admission
  // EWMA), not measured.
  r.check(!run_open_loop(srv.port(), stream, warmup_first, warmup_requests, rps, kDeadlineMs,
                         1e9, nullptr, drain_s)
               .transport_error,
          "warm-up transport");

  // Timed part at the fixed offered rate.
  const StatsSnapshot before = srv.stats();
  const OpenLoopRun run = run_open_loop(srv.port(), stream, 0, main_requests, rps,
                                        kDeadlineMs, seconds, nullptr, drain_s);
  const StatsSnapshot served = stats_delta(before, srv.stats());
  r.check(!run.transport_error, "open-loop transport");
  const std::size_t full = run.full_count();
  r.ops(run.sent, run.sent - full);
  const std::vector<double> lat = run.latencies_ms(false);

  // Correctness: sampled answers against exact Dijkstra, within
  // (1+eps) times the Lemma 5.2 rounding distortion (1+zeta).
  const double envelope = (1.0 + p.epsilon) * (1.0 + p.hopset.zeta);
  double stretch_max = 1.0;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < run.sent && checked < kChecks; i += 3) {
    if (!run.full(i)) continue;
    const auto [src, dst] = stream[i][0];
    const weight_t exact = dijkstra(s.graph, src).dist[dst];
    const double est = run.responses[i].answers[0].estimate;
    const bool ok = est + 1e-9 >= exact && est <= envelope * exact + 1e-9;
    if (exact > 0) stretch_max = std::max(stretch_max, est / exact);
    r.check(ok, "answer " + std::to_string(src) + "->" + std::to_string(dst) + " = " +
                    std::to_string(est) + ", exact " + std::to_string(exact));
    ++checked;
  }
  r.check(checked > 0, "at least one answer checked");

  if (!trace) {
    r.set("setup_s", median(setup_s), "s");
    // The p99 swings by 2x between runs on a shared host (multi-ms
    // descheduling of a worker), so BENCHMARK.json does not bound it.
    r.latency("latency_ms", "query_p99_ms", 0.99, lat, "ms", kTailWindows);
    r.set("ok_frac", run.sent ? static_cast<double>(full) / static_cast<double>(run.sent) : 0,
          "fraction");
    r.set("stretch_max", stretch_max, "ratio");

    bool capped = false;
    const double max_rps = search_max_rps(srv.port(), stream, rungs_first, rps, &capped);
    if (max_rps == 0) {
      std::fprintf(stderr, "perfbench: no rung passed, not even the offered %g requests/s\n",
                   rps);
    }
    if (capped) {
      std::fprintf(stderr, "perfbench: the top rung passed; throughput_per_s is a lower bound\n");
    }
    r.set("throughput_per_s", max_rps, "1/s");
    r.set("throughput_capped", capped ? 1.0 : 0.0, "flag");
    r.samples["throughput_per_s"] = kRungRequests;
  } else {
    r.set("graph.generate_s", median(gen_s), "s");
    r.set("gen.lateness_p99_ms", quantile(run.lateness_ms(), 0.99), "ms");
    r.samples["gen.lateness_p99_ms"] = run.sent;
    r.set("tail.query_p99_ms", windowed_quantile(lat, 0.99, kTailWindows), "ms");
    trace_requests(tracer, run);
    const double untraced_p50 = median(lat);
    r.set("trace.e2e_untraced_ms", untraced_p50, "ms");
    const std::vector<double> rtt_us = ping_rtt_us(srv.port(), seed, r);
    report_server_counters(r, served, 0);  // the open-loop client never retries

    // The same requests through the codecs and ApproxShortestPaths::query.
    SpanRecorder spans(tracer);
    const QueryReplay q =
        replay_queries(*s.engine, request_prefix(stream, run.sent, kReplayPairs), spans, r);
    report_query_unaccounted(untraced_p50, rtt_us, q, r);
    // Layers the timed part does not reach, on the served grid.
    drive_cluster_and_hopset(s.graph, kSpannerK, kClusterReps, s.graph, p.hopset, seed,
                             spans, r);
    drive_spanners(s.graph, kSpannerK, kSpannerProbeReps, seed, spans, r);
    drive_update_layers(s.graph, kMaxWeight, kProbeBatches, p, seed, o.str("workdir"), spans,
                        r);
    report_span_cost(spans, r);
    report_self_times(r, tracer);
  }

  srv.stop();
  r.check(srv.open_connections() == 0, "no leaked connections after stop");
  if (!trace) r.set("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
