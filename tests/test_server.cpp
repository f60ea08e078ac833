// Tests for the hardened query service: wire-protocol strictness,
// deadline expiry mid-batch, degraded-tier correctness, admission
// shedding under (injected) spikes, fault-injection determinism, and
// clean shutdown with zero leaked connections.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "server/admission.hpp"
#include "server/checkpoint.hpp"
#include "server/client.hpp"
#include "server/fault_injector.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/transport.hpp"
#include "sssp/approx_query.hpp"
#include "sssp/dijkstra.hpp"

namespace parsh::server {
namespace {

/// One engine for the whole suite (preprocessing is the slow part).
struct Env {
  Graph g;
  ApproxShortestPaths engine;
  std::vector<weight_t> exact0;  // exact distances from vertex 0

  Env()
      : g(with_log_uniform_weights(ensure_connected(make_random_graph(300, 900, 7)),
                                   128.0, 8)),
        engine(g, [] {
          ApproxShortestPaths::Params p;
          p.epsilon = 0.25;
          return p;
        }()),
        exact0(dijkstra(g, 0).dist) {}
};

const Env& env() {
  static const Env* e = new Env();
  return *e;
}

// ---- protocol strictness ----------------------------------------------------

TEST(Protocol, HeaderValidationRejectsEveryCorruption) {
  std::vector<std::uint8_t> frame;
  encode_ping(frame, 42, /*pong=*/false);
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  FrameType type;
  std::uint32_t len = 0;
  EXPECT_TRUE(parse_frame_header(frame.data(), &type, &len).ok());
  EXPECT_EQ(type, FrameType::kPing);

  auto corrupted = [&](std::size_t byte, std::uint8_t value) {
    std::vector<std::uint8_t> bad = frame;
    bad[byte] = value;
    return parse_frame_header(bad.data(), &type, &len);
  };
  EXPECT_EQ(corrupted(0, 0xff).code, StatusCode::kInvalidArgument);  // magic lo
  EXPECT_EQ(corrupted(1, 0xff).code, StatusCode::kInvalidArgument);  // magic hi
  EXPECT_EQ(corrupted(2, 99).code, StatusCode::kInvalidArgument);    // version
  EXPECT_EQ(corrupted(3, 0).code, StatusCode::kInvalidArgument);     // type 0
  EXPECT_EQ(corrupted(3, 200).code, StatusCode::kInvalidArgument);   // unknown type
  EXPECT_EQ(corrupted(7, 0xff).code, StatusCode::kInvalidArgument);  // > 1 MiB
}

TEST(Protocol, QueryRequestRoundTripsAndRejectsLies) {
  QueryRequest req;
  req.id = 77;
  req.deadline_ms = 250;
  req.pairs = {{0, 1}, {2, 3}, {4, 4}};
  std::vector<std::uint8_t> frame;
  encode_query_request(frame, req);

  // Strip the header; the payload is what decode sees.
  std::vector<std::uint8_t> payload(frame.begin() + kFrameHeaderBytes, frame.end());
  QueryRequest got;
  ASSERT_TRUE(decode_query_request(payload, &got).ok());
  EXPECT_EQ(got.id, 77u);
  EXPECT_EQ(got.deadline_ms, 250u);
  EXPECT_EQ(got.pairs, req.pairs);

  // Count field lying about the payload length.
  std::vector<std::uint8_t> lying = payload;
  lying[16] = 9;  // count lives after id(8) + deadline(4) + flags(4)
  EXPECT_EQ(decode_query_request(lying, &got).code, StatusCode::kInvalidArgument);
  // Truncated payload.
  std::vector<std::uint8_t> cut(payload.begin(), payload.end() - 3);
  EXPECT_EQ(decode_query_request(cut, &got).code, StatusCode::kInvalidArgument);
  // Reserved flags must be zero in v1.
  std::vector<std::uint8_t> flagged = payload;
  flagged[12] = 1;
  EXPECT_EQ(decode_query_request(flagged, &got).code, StatusCode::kInvalidArgument);
  // Deadline above the cap.
  QueryRequest huge = req;
  huge.deadline_ms = kMaxDeadlineMs + 1;
  frame.clear();
  encode_query_request(frame, huge);
  payload.assign(frame.begin() + kFrameHeaderBytes, frame.end());
  EXPECT_EQ(decode_query_request(payload, &got).code, StatusCode::kInvalidArgument);
}

TEST(Protocol, ResponseAndStatsRoundTrip) {
  QueryResponse resp;
  resp.id = 5;
  resp.status = StatusCode::kDeadlineExceeded;
  resp.retry_after_ms = 17;
  resp.flags = kRespFlagDegraded | kRespFlagPartial;
  resp.answers = {{StatusCode::kOk, 3.5, 2},
                  {StatusCode::kDeadlineExceeded, kInfWeight, 0}};
  std::vector<std::uint8_t> frame;
  encode_query_response(frame, resp);
  std::vector<std::uint8_t> payload(frame.begin() + kFrameHeaderBytes, frame.end());
  QueryResponse got;
  ASSERT_TRUE(decode_query_response(payload, &got).ok());
  EXPECT_EQ(got.id, 5u);
  EXPECT_EQ(got.status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(got.retry_after_ms, 17u);
  EXPECT_EQ(got.flags, resp.flags);
  ASSERT_EQ(got.answers.size(), 2u);
  EXPECT_DOUBLE_EQ(got.answers[0].estimate, 3.5);
  EXPECT_EQ(got.answers[1].status, StatusCode::kDeadlineExceeded);

  StatsSnapshot s;
  s.requests_shed = 9;
  s.pool_checkout_timeouts = 3;
  frame.clear();
  encode_stats_response(frame, s);
  payload.assign(frame.begin() + kFrameHeaderBytes, frame.end());
  StatsSnapshot got_s;
  ASSERT_TRUE(decode_stats_response(payload, &got_s).ok());
  EXPECT_EQ(got_s.requests_shed, 9u);
  EXPECT_EQ(got_s.pool_checkout_timeouts, 3u);
}

// ---- fault injector determinism ---------------------------------------------

TEST(FaultInjector, PerSiteTracesAreInterleavingIndependent) {
  FaultPlan plan;
  plan.tear_write = 0.2;
  plan.slow_write = 0.2;
  plan.drop_connection = 0.1;
  plan.worker_stall = 0.5;
  plan.queue_spike = 0.5;

  // Run A: all sites consulted round-robin from one thread.
  FaultInjector a(/*seed=*/1234, plan);
  for (int i = 0; i < 64; ++i) {
    for (std::size_t s = 0; s < kNumFaultSites; ++s) {
      (void)a.next(static_cast<FaultSite>(s));
    }
  }
  // Run B: one thread hammers each site, all concurrently — maximal
  // cross-site interleaving churn.
  FaultInjector b(/*seed=*/1234, plan);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kNumFaultSites; ++s) {
    threads.emplace_back([&b, s] {
      for (int i = 0; i < 64; ++i) (void)b.next(static_cast<FaultSite>(s));
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t s = 0; s < kNumFaultSites; ++s) {
    EXPECT_EQ(a.trace(static_cast<FaultSite>(s)), b.trace(static_cast<FaultSite>(s)))
        << "site " << fault_site_name(static_cast<FaultSite>(s));
  }
  EXPECT_EQ(a.trace_string(), b.trace_string());
  EXPECT_EQ(a.injected(), b.injected());
  EXPECT_GT(a.injected(), 0u);

  // A different seed draws a different schedule.
  FaultInjector c(/*seed=*/99, plan);
  for (int i = 0; i < 64; ++i) {
    for (std::size_t s = 0; s < kNumFaultSites; ++s) {
      (void)c.next(static_cast<FaultSite>(s));
    }
  }
  EXPECT_NE(a.trace_string(), c.trace_string());
}

// ---- deadline expiry mid-batch (engine level, deterministic) ----------------

TEST(ServingDeadline, CheckBasedBudgetCutsABatchDeterministically) {
  const Env& e = env();
  SsspWorkspace ws;
  std::vector<ApproxShortestPaths::QueryPair> pairs;
  for (vid t = 1; t <= 40; ++t) pairs.push_back({0, t});

  ApproxShortestPaths::QueryOptions opts;
  // Enough checks for a handful of queries, nowhere near the batch's full
  // demand — the budget must expire mid-batch.
  opts.deadline = Deadline::after_checks(50);
  const auto results = e.engine.query_batch(pairs, ws, opts);
  ASSERT_EQ(results.size(), pairs.size());

  std::size_t completed = 0, cut = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].deadline_exceeded) {
      ++cut;
    } else {
      ++completed;
    }
    // Whatever was settled must still be a valid upper bound.
    if (results[i].estimate != kInfWeight) {
      EXPECT_GE(results[i].estimate, e.exact0[pairs[i].second] * (1.0 - 1e-9));
    }
  }
  EXPECT_GT(completed, 0u) << "budget expired before any query ran";
  EXPECT_GT(cut, 0u) << "budget never expired";

  // Same budget, same batch: identical partial results (the check-based
  // deadline is the deterministic seam the wall clock can't offer).
  SsspWorkspace ws2;
  ApproxShortestPaths::QueryOptions opts2;
  opts2.deadline = Deadline::after_checks(50);
  const auto replay = e.engine.query_batch(pairs, ws2, opts2);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].deadline_exceeded, replay[i].deadline_exceeded) << i;
    EXPECT_EQ(results[i].estimate, replay[i].estimate) << i;
  }
}

// ---- degraded tier (engine level: the documented stretch bound) -------------

TEST(ServingDegraded, SkippedScalesKeepTheDocumentedStretchBound) {
  const Env& e = env();
  ASSERT_GT(e.engine.num_scales(), 1u) << "need multiple scales to degrade across";
  SsspWorkspace ws;

  for (std::size_t skip = 1; skip < e.engine.num_scales(); ++skip) {
    ApproxShortestPaths::QueryOptions opts;
    opts.skip_scales = skip;
    const std::size_t first = std::min(skip, e.engine.num_scales() - 1);
    const weight_t d_first = e.engine.hopset().scales[first].d;
    const double slack = e.engine.degraded_slack();
    for (vid t = 1; t < 60; ++t) {
      const auto r = e.engine.query(0, t, ws, opts);
      EXPECT_TRUE(r.degraded);
      const weight_t exact = e.exact0[t];
      ASSERT_NE(exact, kInfWeight);
      // Lower side: estimates are upper bounds, degraded or not.
      EXPECT_GE(r.estimate, exact * (1.0 - 1e-9)) << "skip=" << skip << " t=" << t;
      // Upper side: the degraded-tier contract documented on
      // QueryOptions::skip_scales / degraded_slack().
      EXPECT_LE(r.estimate, 1.25 * exact + slack * d_first + 1e-9)
          << "skip=" << skip << " t=" << t;
    }
  }
}

// ---- workspace pool serving mode --------------------------------------------

TEST(WorkspacePool, CheckoutHonorsDeadlinesAndRecycles) {
  SsspWorkspacePool pool;
  pool.prepare_serving(1);
  EXPECT_EQ(pool.available(), 1u);

  auto lease = pool.checkout(Deadline::never());
  ASSERT_TRUE(lease);
  EXPECT_EQ(pool.available(), 0u);

  // Pool exhausted: a bounded wait times out into an empty lease.
  auto starved = pool.checkout(Deadline::after_ms(20));
  EXPECT_FALSE(starved);

  // An already-expired budget still succeeds when a workspace is free.
  lease.release();
  auto instant = pool.checkout(Deadline::after_ms(0));
  EXPECT_TRUE(instant);
  instant.release();
  EXPECT_EQ(pool.available(), 1u);

  // A blocked checkout wakes when a lease returns.
  auto held = pool.checkout(Deadline::never());
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    auto l = pool.checkout(Deadline::after_ms(2000));
    got.store(l ? true : false);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  held.release();
  waiter.join();
  EXPECT_TRUE(got.load());
}

// ---- admission queue (unit) -------------------------------------------------

TEST(Admission, CoalescesArrivalsIntoOneBatch) {
  ServerMetrics metrics;
  AdmissionParams params;
  params.warm_ms_per_query_hint = 0.5;  // batch target: 5ms / 0.5ms = 10
  AdmissionQueue q(params, &metrics, nullptr);
  for (int i = 0; i < 10; ++i) {
    PendingRequest pr;
    pr.req.id = static_cast<std::uint64_t>(i);
    pr.req.pairs = {{0, 1}};
    pr.deadline = Deadline::after_ms(1000);
    std::uint32_t retry = 0;
    ASSERT_TRUE(q.offer(std::move(pr), &retry).ok());
  }
  std::vector<PendingRequest> batch;
  std::size_t skip = 0;
  ASSERT_TRUE(q.take_batch(&batch, &skip));
  EXPECT_EQ(batch.size(), 10u) << "arrivals should coalesce into one dispatch";
  EXPECT_EQ(skip, 0u);
  q.finish_batch(10, 1.0);
  q.stop();
  EXPECT_FALSE(q.take_batch(&batch, &skip));
}

TEST(Admission, ShedsWhenBacklogExceedsDeadlineBudget) {
  ServerMetrics metrics;
  AdmissionParams params;
  params.warm_ms_per_query_hint = 10.0;  // every query "costs" 10ms
  AdmissionQueue q(params, &metrics, nullptr);

  // 8 queries * 10ms = 80ms estimated drain >> 20ms budget: shed.
  PendingRequest doomed;
  doomed.req.deadline_ms = 20;
  doomed.req.pairs.assign(8, {0, 1});
  std::uint32_t retry = 0;
  const Status s = q.offer(std::move(doomed), &retry);
  EXPECT_EQ(s.code, StatusCode::kResourceExhausted);
  EXPECT_GE(retry, 1u);
  EXPECT_EQ(metrics.requests_shed.load(), 1u);

  // The same request with budget to spare is admitted.
  PendingRequest fine;
  fine.req.deadline_ms = 200;
  fine.req.pairs.assign(8, {0, 1});
  EXPECT_TRUE(q.offer(std::move(fine), &retry).ok());
  q.stop();
}

TEST(Admission, DegradesPastTheConfiguredQueueFraction) {
  ServerMetrics metrics;
  AdmissionParams params;
  params.warm_ms_per_query_hint = 1e-4;
  params.max_queue_depth = 8;
  params.degrade_at_fraction = 0.25;  // degrade at depth >= 2
  params.degrade_skip_scales = 3;
  params.max_batch = 1;  // dispatch one query at a time
  AdmissionQueue q(params, &metrics, nullptr);
  for (int i = 0; i < 4; ++i) {
    PendingRequest pr;
    pr.req.pairs = {{0, 1}};
    pr.req.deadline_ms = 60'000;
    std::uint32_t retry = 0;
    ASSERT_TRUE(q.offer(std::move(pr), &retry).ok());
  }
  std::vector<PendingRequest> batch;
  std::size_t skip = 0;
  ASSERT_TRUE(q.take_batch(&batch, &skip));
  EXPECT_EQ(skip, 3u) << "queue at depth 4/8 must dispatch degraded";
  // Drain to below the threshold: the tier recovers.
  ASSERT_TRUE(q.take_batch(&batch, &skip));
  ASSERT_TRUE(q.take_batch(&batch, &skip));
  ASSERT_TRUE(q.take_batch(&batch, &skip));
  EXPECT_EQ(skip, 0u) << "queue at depth 1/8 must dispatch at full fidelity";
  q.stop();
}

// ---- end-to-end over a socketpair -------------------------------------------

ServerConfig quiet_config() {
  ServerConfig cfg;
  cfg.query_workers = 1;
  cfg.admission.warm_ms_per_query_hint = 1e-3;
  cfg.admission.default_deadline_ms = 5000;
  return cfg;
}

TEST(QueryServer, RoundTripMatchesDirectEngineAnswers) {
  const Env& e = env();
  QueryServer server(e.g, e.engine, quiet_config());
  server.start();
  FdStream sfd, cfd;
  ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
  server.serve_stream(std::move(sfd));

  ClientConfig ccfg;
  ccfg.max_retries = 0;
  QueryClient client(std::move(cfd), ccfg);
  ASSERT_TRUE(client.ping().ok());

  const std::vector<std::pair<vid, vid>> pairs = {{0, 1}, {0, 50}, {0, 299}, {5, 5}};
  QueryResponse resp;
  ASSERT_TRUE(client.query(pairs, /*deadline_ms=*/5000, &resp).ok());
  EXPECT_EQ(resp.status, StatusCode::kOk);
  ASSERT_EQ(resp.answers.size(), pairs.size());

  SsspWorkspace ws;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(resp.answers[i].status, StatusCode::kOk);
    const auto direct = e.engine.query(pairs[i].first, pairs[i].second, ws);
    EXPECT_DOUBLE_EQ(resp.answers[i].estimate, direct.estimate) << i;
  }

  StatsSnapshot s;
  ASSERT_TRUE(client.stats(&s).ok());
  EXPECT_GE(s.frames_received, 2u);
  EXPECT_EQ(s.requests_admitted, 1u);
  EXPECT_EQ(s.queries_ok, 4u);

  client.close();
  server.stop();
  EXPECT_EQ(server.open_connections(), 0u);
}

TEST(QueryServer, OutOfRangeIdsAnswerIndividually) {
  const Env& e = env();
  QueryServer server(e.g, e.engine, quiet_config());
  server.start();
  FdStream sfd, cfd;
  ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
  server.serve_stream(std::move(sfd));
  ClientConfig ccfg;
  ccfg.max_retries = 0;
  QueryClient client(std::move(cfd), ccfg);

  QueryResponse resp;
  ASSERT_TRUE(client.query({{0, 1}, {0, 300}, {99999, 0}}, 5000, &resp).ok());
  EXPECT_EQ(resp.status, StatusCode::kOk) << "bad ids are answers, not errors";
  ASSERT_EQ(resp.answers.size(), 3u);
  EXPECT_EQ(resp.answers[0].status, StatusCode::kOk);
  EXPECT_EQ(resp.answers[1].status, StatusCode::kOutOfRange);
  EXPECT_EQ(resp.answers[2].status, StatusCode::kOutOfRange);
  EXPECT_EQ(resp.answers[1].estimate, kInfWeight);
  EXPECT_EQ(server.metrics().queries_out_of_range.load(), 2u);
  server.stop();
}

TEST(QueryServer, MalformedFrameDrawsErrorAndClose) {
  const Env& e = env();
  QueryServer server(e.g, e.engine, quiet_config());
  server.start();
  FdStream sfd, cfd;
  ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
  server.serve_stream(std::move(sfd));

  // 8 bytes of garbage where a frame header belongs.
  const std::uint8_t garbage[8] = {0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4};
  ASSERT_TRUE(cfd.write_all(garbage, sizeof(garbage), Deadline::after_ms(1000)).ok());

  Frame frame;
  ASSERT_TRUE(cfd.read_frame(&frame, Deadline::after_ms(2000)).ok());
  EXPECT_EQ(frame.type, FrameType::kError);
  Status err;
  ASSERT_TRUE(decode_error(frame.payload, &err).ok());
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);

  // The stream is desynchronized; the server hangs up after the error.
  const Status eof = cfd.read_frame(&frame, Deadline::after_ms(2000));
  EXPECT_EQ(eof.code, StatusCode::kConnectionClosed);
  EXPECT_EQ(server.metrics().invalid_frames.load(), 1u);
  server.stop();
  EXPECT_EQ(server.open_connections(), 0u);
}

TEST(QueryServer, WallClockDeadlineYieldsPartialAnswers) {
  const Env& e = env();
  ServerConfig cfg = quiet_config();
  // Keep the drain estimate optimistic so admission lets the doomed
  // request through — this test is about the execution-time deadline.
  cfg.admission.warm_ms_per_query_hint = 1e-4;
  QueryServer server(e.g, e.engine, cfg);
  server.start();
  FdStream sfd, cfd;
  ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
  server.serve_stream(std::move(sfd));
  ClientConfig ccfg;
  ccfg.max_retries = 0;
  QueryClient client(std::move(cfd), ccfg);

  std::vector<std::pair<vid, vid>> pairs;
  for (vid i = 0; i < 800; ++i) pairs.push_back({i % 300, (i * 7 + 3) % 300});
  QueryResponse resp;
  ASSERT_TRUE(client.query(pairs, /*deadline_ms=*/1, &resp).ok());
  EXPECT_EQ(resp.status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(resp.flags & kRespFlagPartial);
  ASSERT_EQ(resp.answers.size(), pairs.size());
  std::size_t cut = 0;
  for (const QueryAnswer& a : resp.answers) {
    if (a.status == StatusCode::kDeadlineExceeded) ++cut;
  }
  EXPECT_GT(cut, 0u);
  EXPECT_GT(server.metrics().queries_deadline_exceeded.load(), 0u);
  server.stop();
}

TEST(QueryServer, InjectedSpikeShedsWithRetryHintAndClientBacksOff) {
  const Env& e = env();
  ServerConfig cfg = quiet_config();
  cfg.admission.warm_ms_per_query_hint = 10.0;  // expensive queries
  cfg.enable_faults = true;
  cfg.fault_seed = 42;
  cfg.faults.queue_spike = 1.0;  // every admission sees a phantom burst
  cfg.faults.max_spike = 64;
  QueryServer server(e.g, e.engine, cfg);
  server.start();
  FdStream sfd, cfd;
  ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
  server.serve_stream(std::move(sfd));

  ClientConfig ccfg;
  ccfg.max_retries = 2;
  ccfg.backoff_base_ms = 1;
  ccfg.backoff_max_ms = 4;
  QueryClient client(std::move(cfd), ccfg);

  QueryResponse resp;
  const Status s = client.query({{0, 1}, {0, 2}}, /*deadline_ms=*/20, &resp);
  EXPECT_EQ(s.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(client.client_stats().sheds_seen, 3u);  // initial try + 2 retries
  EXPECT_EQ(client.client_stats().retries, 2u);
  EXPECT_EQ(client.client_stats().failures, 1u);
  EXPECT_EQ(server.metrics().requests_shed.load(), 3u);
  EXPECT_GT(server.stats().faults_injected, 0u);
  server.stop();
}

TEST(QueryServer, DegradedTierIsFlaggedOnTheWire) {
  const Env& e = env();
  ASSERT_GT(e.engine.num_scales(), 1u);
  ServerConfig cfg = quiet_config();
  cfg.admission.degrade_at_fraction = 0.0;  // every dispatch degraded
  cfg.admission.degrade_skip_scales = e.engine.num_scales() - 1;
  QueryServer server(e.g, e.engine, cfg);
  server.start();
  FdStream sfd, cfd;
  ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
  server.serve_stream(std::move(sfd));
  ClientConfig ccfg;
  ccfg.max_retries = 0;
  QueryClient client(std::move(cfd), ccfg);

  QueryResponse resp;
  ASSERT_TRUE(client.query({{0, 10}, {0, 200}}, 5000, &resp).ok());
  EXPECT_TRUE(resp.flags & kRespFlagDegraded);
  // Degraded answers still honor the degraded-tier stretch contract.
  const std::size_t first = e.engine.num_scales() - 1;
  const weight_t d_first = e.engine.hopset().scales[first].d;
  const double slack = e.engine.degraded_slack();
  const vid targets[] = {10, 200};
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(resp.answers[i].status, StatusCode::kOk);
    const weight_t exact = e.exact0[targets[i]];
    EXPECT_GE(resp.answers[i].estimate, exact * (1.0 - 1e-9));
    EXPECT_LE(resp.answers[i].estimate, 1.25 * exact + slack * d_first + 1e-9);
  }
  EXPECT_GT(server.metrics().queries_degraded.load(), 0u);
  server.stop();
}

// ---- fault workload determinism (same seed => same recovery trace) ----------

std::string run_fault_workload(std::uint64_t seed) {
  const Env& e = env();
  ServerConfig cfg = quiet_config();
  cfg.enable_faults = true;
  cfg.fault_seed = seed;
  // Survivable faults only: the connection must live through the whole
  // lock-step workload so every run issues identical per-site call
  // sequences. Drops/tears are covered by the recovery test below.
  cfg.faults.slow_write = 0.3;
  cfg.faults.worker_stall = 0.5;
  cfg.faults.queue_spike = 0.2;
  cfg.faults.max_delay_us = 200;
  cfg.faults.max_spike = 4;

  QueryServer server(e.g, e.engine, cfg);
  server.start();
  FdStream sfd, cfd;
  EXPECT_TRUE(make_socketpair(&sfd, &cfd).ok());
  server.serve_stream(std::move(sfd));
  ClientConfig ccfg;
  ccfg.max_retries = 0;
  QueryClient client(std::move(cfd), ccfg);

  // Lock-step: each request waits for its response, so batch boundaries
  // (and with them the worker-site call count) are schedule-independent.
  for (vid i = 0; i < 20; ++i) {
    QueryResponse resp;
    EXPECT_TRUE(client.query({{i % 50, (i * 7 + 3) % 50}}, 5000, &resp).ok()) << i;
  }
  client.close();
  server.stop();
  EXPECT_EQ(server.open_connections(), 0u);
  EXPECT_EQ(server.metrics().connections_opened.load(),
            server.metrics().connections_closed.load());
  return server.injector()->trace_string();
}

TEST(QueryServer, FaultScheduleIsSeedDeterministic) {
  const std::string first = run_fault_workload(1337);
  const std::string second = run_fault_workload(1337);
  EXPECT_EQ(first, second) << "same seed + same workload must replay exactly";
  EXPECT_FALSE(first.empty());
  const std::string other = run_fault_workload(2024);
  EXPECT_NE(first, other) << "different seeds must draw different schedules";
}

// ---- TCP transport, dropped-connection recovery, clean shutdown -------------

TEST(QueryServer, TcpClientsRecoverFromInjectedDrops) {
  const Env& e = env();
  ServerConfig cfg = quiet_config();
  cfg.enable_faults = true;
  cfg.fault_seed = 7;
  cfg.faults.drop_connection = 0.15;  // read- and write-site drops
  cfg.faults.tear_write = 0.05;
  QueryServer server(e.g, e.engine, cfg);
  ASSERT_TRUE(server.listen_tcp(0).ok());
  ASSERT_NE(server.port(), 0);

  ClientConfig ccfg;
  ccfg.max_retries = 6;
  ccfg.backoff_base_ms = 1;
  ccfg.backoff_max_ms = 4;
  QueryClient client;
  ASSERT_TRUE(QueryClient::connect_tcp(server.port(), ccfg, &client).ok());

  std::size_t ok = 0;
  for (vid i = 0; i < 15; ++i) {
    QueryResponse resp;
    if (client.query({{i % 300, (i * 11 + 5) % 300}}, 5000, &resp).ok()) ++ok;
  }
  // Drops fired and the retry/reconnect loop carried requests through.
  EXPECT_GT(server.stats().faults_injected, 0u);
  EXPECT_GE(client.client_stats().reconnects, 1u);
  EXPECT_GT(ok, 0u);

  client.close();
  server.stop();
  EXPECT_EQ(server.open_connections(), 0u);
  EXPECT_EQ(server.metrics().connections_opened.load(),
            server.metrics().connections_closed.load());
}

// ---- dynamic serving over the wire ------------------------------------------
//
// Updates are served only through the Durability coordinator; these open
// it over a scratch directory with fsync off.

std::string durable_dir(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir =
      std::string(tmp && *tmp ? tmp : "/tmp") + "/parsh_server_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

DurabilityOptions durable_options(const std::string& dir) {
  DurabilityOptions opt;
  opt.dir = dir;
  opt.wal.fsync = FsyncPolicy::kOff;
  return opt;
}

DynamicApproxShortestPaths::Params dyn_params() {
  DynamicApproxShortestPaths::Params p;
  p.epsilon = 0.25;
  p.hopset.k_hops = 12;  // small hop budget: millisecond rebuilds at n=100
  return p;
}

Graph dyn_graph() {
  return with_uniform_weights(ensure_connected(make_random_graph(100, 300, 11)), 1,
                              9, 42);
}

TEST(DynamicServer, UpdatesSwapEpochsAndQueriesFollow) {
  const std::string dir = durable_dir("swap_epochs");
  std::unique_ptr<Durability> durable;
  ASSERT_TRUE(Durability::open(dyn_graph(), dyn_params(), durable_options(dir),
                               &durable)
                  .ok());
  QueryServer server(*durable, quiet_config());
  server.start();
  FdStream sfd, cfd;
  ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
  server.serve_stream(std::move(sfd));

  ClientConfig ccfg;
  ccfg.max_retries = 0;
  QueryClient client(std::move(cfd), ccfg);

  // Epoch 0 is on the wire before any update.
  QueryResponse q0;
  ASSERT_TRUE(client.query({{0, 77}}, /*deadline_ms=*/5000, &q0).ok());
  EXPECT_EQ(q0.status, StatusCode::kOk);
  EXPECT_EQ(q0.epoch, 0u);

  // A real structural change: a shortcut edge 0--77 of weight 1 must pull
  // the served estimate down to at most 1 * (1 + eps) and bump the epoch.
  UpdateResponse ur;
  ASSERT_TRUE(client.update({{0, 77, 1.0}}, {}, &ur).ok());
  EXPECT_EQ(ur.status, StatusCode::kOk);
  EXPECT_EQ(ur.epoch, 1u);
  // Lands as an insert, or as a reweight if the generator already drew
  // the pair — either way exactly one effective change.
  EXPECT_EQ(ur.inserted + ur.reweighted, 1u);
  EXPECT_GT(ur.total_scales, 0u);
  EXPECT_LE(ur.dirty_scales, ur.total_scales);
  EXPECT_LE(ur.dirty_clusters, ur.total_clusters);

  QueryResponse q1;
  ASSERT_TRUE(client.query({{0, 77}}, /*deadline_ms=*/5000, &q1).ok());
  EXPECT_EQ(q1.status, StatusCode::kOk);
  EXPECT_EQ(q1.epoch, 1u);
  ASSERT_EQ(q1.answers.size(), 1u);
  EXPECT_LE(q1.answers[0].estimate, 1.0 * (1 + 0.25) + 1e-9);
  EXPECT_LE(q1.answers[0].estimate, q0.answers[0].estimate);

  // The wire answer matches the engine's own current snapshot exactly.
  SsspWorkspace ws;
  const auto snap = durable->engine().snapshot();
  EXPECT_DOUBLE_EQ(q1.answers[0].estimate, snap->engine.query(0, 77, ws).estimate);

  // Counters made it onto the stats wire.
  StatsSnapshot s;
  ASSERT_TRUE(client.stats(&s).ok());
  EXPECT_EQ(s.updates_applied, 1u);
  EXPECT_EQ(s.updates_rejected, 0u);

  client.close();
  server.stop();
  EXPECT_EQ(server.open_connections(), 0u);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(DynamicServer, BadBatchesAnswerTypedAndApplyNothing) {
  const std::string dir = durable_dir("bad_batches");
  std::unique_ptr<Durability> durable;
  ASSERT_TRUE(Durability::open(dyn_graph(), dyn_params(), durable_options(dir),
                               &durable)
                  .ok());
  QueryServer server(*durable, quiet_config());
  server.start();
  FdStream sfd, cfd;
  ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
  server.serve_stream(std::move(sfd));
  ClientConfig ccfg;
  ccfg.max_retries = 0;
  QueryClient client(std::move(cfd), ccfg);

  // An out-of-range endpoint rejects the whole batch atomically — the
  // in-range edge in the same batch must NOT land.
  UpdateResponse ur;
  ASSERT_TRUE(client.update({{0, 5, 2.0}, {3, 100, 1.0}}, {}, &ur).ok());
  EXPECT_EQ(ur.status, StatusCode::kOutOfRange);
  EXPECT_EQ(durable->engine().epoch(), 0u);
  EXPECT_EQ(durable->wal_records(), 0u);

  // The connection survives a rejected batch; a good one still applies.
  ASSERT_TRUE(client.update({{0, 5, 2.0}}, {}, &ur).ok());
  EXPECT_EQ(ur.status, StatusCode::kOk);
  EXPECT_EQ(ur.epoch, 1u);

  StatsSnapshot s;
  ASSERT_TRUE(client.stats(&s).ok());
  EXPECT_EQ(s.updates_applied, 1u);
  EXPECT_EQ(s.updates_rejected, 1u);

  client.close();
  server.stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(DynamicServer, StaticServerAnswersUnavailable) {
  const Env& e = env();
  QueryServer server(e.g, e.engine, quiet_config());
  server.start();
  FdStream sfd, cfd;
  ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
  server.serve_stream(std::move(sfd));
  ClientConfig ccfg;
  ccfg.max_retries = 0;
  QueryClient client(std::move(cfd), ccfg);

  UpdateResponse ur;
  ASSERT_TRUE(client.update({{0, 1, 1.0}}, {}, &ur).ok());
  EXPECT_EQ(ur.status, StatusCode::kUnavailable);

  // Queries on the same connection are untouched.
  QueryResponse resp;
  ASSERT_TRUE(client.query({{0, 1}}, /*deadline_ms=*/5000, &resp).ok());
  EXPECT_EQ(resp.status, StatusCode::kOk);

  client.close();
  server.stop();
}

TEST(DynamicServer, SwapFaultSiteStallsTheSwapNotTheQueries) {
  const std::string dir = durable_dir("swap_fault");
  std::unique_ptr<Durability> durable;
  ASSERT_TRUE(Durability::open(dyn_graph(), dyn_params(), durable_options(dir),
                               &durable)
                  .ok());
  ServerConfig cfg = quiet_config();
  cfg.enable_faults = true;
  cfg.fault_seed = 77;
  cfg.faults.swap_stall = 1.0;  // every swap stalls
  cfg.faults.max_delay_us = 2000;
  QueryServer server(*durable, cfg);
  server.start();
  FdStream sfd, cfd;
  ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
  server.serve_stream(std::move(sfd));
  ClientConfig ccfg;
  ccfg.max_retries = 0;
  QueryClient client(std::move(cfd), ccfg);

  UpdateResponse ur;
  ASSERT_TRUE(client.update({{1, 50, 1.0}}, {}, &ur).ok());
  EXPECT_EQ(ur.status, StatusCode::kOk);
  ASSERT_NE(server.injector(), nullptr);
  EXPECT_FALSE(server.injector()->trace(FaultSite::kSwap).empty());

  QueryResponse resp;
  ASSERT_TRUE(client.query({{1, 50}}, /*deadline_ms=*/5000, &resp).ok());
  EXPECT_EQ(resp.status, StatusCode::kOk);
  EXPECT_EQ(resp.epoch, 1u);

  client.close();
  server.stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ---- durable serving over the wire ------------------------------------------

/// Send one update frame over a raw stream and read back its response
/// (the wire-level path, no client retry machinery in the way).
Status raw_update(FdStream& stream, const UpdateRequest& req,
                  UpdateResponse* out) {
  std::vector<std::uint8_t> bytes;
  encode_update_request(bytes, req);
  const Deadline deadline = Deadline::after_ms(5000);
  Status s = stream.write_frame(bytes, deadline);
  if (!s.ok()) return s;
  for (;;) {
    Frame frame;
    s = stream.read_frame(&frame, deadline);
    if (!s.ok()) return s;
    if (frame.type != FrameType::kUpdateResponse) continue;
    return decode_update_response(frame.payload, out);
  }
}

TEST(DurableServer, DuplicateUpdateFrameRepliesOriginalVerdictOnTheWire) {
  const std::string dir = durable_dir("dup_wire");
  std::unique_ptr<Durability> durable;
  ASSERT_TRUE(Durability::open(dyn_graph(), dyn_params(), durable_options(dir),
                               &durable)
                  .ok());
  QueryServer server(*durable, quiet_config());
  server.start();
  FdStream sfd, cfd;
  ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
  server.serve_stream(std::move(sfd));

  UpdateRequest req;
  req.id = 1;
  req.client_id = 0x5eed;
  req.sequence = 1;
  req.insert = {{0, 77, 1.0}};
  UpdateResponse first;
  ASSERT_TRUE(raw_update(cfd, req, &first).ok());
  EXPECT_EQ(first.status, StatusCode::kOk);
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(first.flags & kUpdateFlagDuplicate, 0u);

  // The retry a client whose ack got lost would send: same (client_id,
  // sequence), fresh frame id, and — because the client re-encodes — the
  // same delta. The server must answer the ORIGINAL verdict and apply
  // nothing.
  req.id = 2;
  UpdateResponse second;
  ASSERT_TRUE(raw_update(cfd, req, &second).ok());
  EXPECT_EQ(second.id, 2u);
  EXPECT_EQ(second.status, StatusCode::kOk);
  EXPECT_NE(second.flags & kUpdateFlagDuplicate, 0u);
  EXPECT_EQ(second.epoch, first.epoch);
  EXPECT_EQ(second.inserted + second.reweighted,
            first.inserted + first.reweighted);
  EXPECT_EQ(durable->engine().epoch(), 1u);

  StatsSnapshot s;
  std::vector<std::uint8_t> bytes;
  encode_stats_request(bytes);
  ASSERT_TRUE(cfd.write_frame(bytes, Deadline::after_ms(5000)).ok());
  Frame frame;
  ASSERT_TRUE(cfd.read_frame(&frame, Deadline::after_ms(5000)).ok());
  ASSERT_TRUE(decode_stats_response(frame.payload, &s).ok());
  EXPECT_EQ(s.updates_applied, 1u);
  EXPECT_EQ(s.updates_deduped, 1u);
  EXPECT_EQ(s.wal_records, 1u);

  cfd.close();
  server.stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(DurableServer, StateSurvivesARestartAndRetrysAreStillDeduped) {
  const std::string dir = durable_dir("restart");
  ClientConfig ccfg;
  ccfg.max_retries = 0;
  ccfg.client_id = 0xfacade;
  QueryResponse before;

  {
    std::unique_ptr<Durability> durable;
    ASSERT_TRUE(Durability::open(dyn_graph(), dyn_params(),
                                 durable_options(dir), &durable)
                    .ok());
    QueryServer server(*durable, quiet_config());
    server.start();
    FdStream sfd, cfd;
    ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
    server.serve_stream(std::move(sfd));
    QueryClient client(std::move(cfd), ccfg);

    for (int i = 0; i < 3; ++i) {
      UpdateResponse ur;
      ASSERT_TRUE(client.update({{0, static_cast<vid>(70 + i), 1.0}}, {}, &ur).ok());
      ASSERT_EQ(ur.status, StatusCode::kOk);
      EXPECT_EQ(ur.epoch, static_cast<std::uint64_t>(i + 1));
    }
    ASSERT_TRUE(client.query({{0, 71}}, 5000, &before).ok());
    ASSERT_EQ(before.status, StatusCode::kOk);
    EXPECT_EQ(before.epoch, 3u);
    client.close();
    server.stop();
    // `durable` drops with no shutdown checkpoint — restart is recovery.
  }

  std::unique_ptr<Durability> durable;
  ASSERT_TRUE(Durability::open(dyn_graph(), dyn_params(), durable_options(dir),
                               &durable)
                  .ok());
  EXPECT_EQ(durable->recovery().replayed, 3u);
  EXPECT_EQ(durable->engine().epoch(), 3u);

  QueryServer server(*durable, quiet_config());
  server.start();
  FdStream sfd, cfd;
  ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
  server.serve_stream(std::move(sfd));

  // Identical answers from the recovered engine.
  QueryClient client(std::move(cfd), ccfg);
  QueryResponse after;
  ASSERT_TRUE(client.query({{0, 71}}, 5000, &after).ok());
  ASSERT_EQ(after.status, StatusCode::kOk);
  ASSERT_EQ(after.answers.size(), 1u);
  EXPECT_DOUBLE_EQ(after.answers[0].estimate, before.answers[0].estimate);

  // A late retry of the last pre-crash batch is STILL deduped: the table
  // came back from the WAL. (Raw frame: this client object's own sequence
  // counter restarted, which is exactly the lost-laptop scenario the
  // explicit client_id config exists for.)
  UpdateRequest dup;
  dup.id = 9;
  dup.client_id = 0xfacade;
  dup.sequence = 3;
  dup.insert = {{0, 72, 1.0}};
  UpdateResponse ur;
  FdStream raw_s, raw_c;
  ASSERT_TRUE(make_socketpair(&raw_s, &raw_c).ok());
  server.serve_stream(std::move(raw_s));
  ASSERT_TRUE(raw_update(raw_c, dup, &ur).ok());
  EXPECT_EQ(ur.status, StatusCode::kOk);
  EXPECT_NE(ur.flags & kUpdateFlagDuplicate, 0u);
  EXPECT_EQ(durable->engine().epoch(), 3u);

  // And a stale sequence below the recovered high-water mark is rejected.
  dup.id = 10;
  dup.sequence = 2;
  ASSERT_TRUE(raw_update(raw_c, dup, &ur).ok());
  EXPECT_EQ(ur.status, StatusCode::kInvalidArgument);

  StatsSnapshot s;
  ASSERT_TRUE(client.stats(&s).ok());
  EXPECT_EQ(s.recovered_updates, 3u);

  client.close();
  raw_c.close();
  server.stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(DurableServer, DroppedResponsesRetryIntoExactlyOnceUnderFaults) {
  const std::string dir = durable_dir("retry_faults");
  std::unique_ptr<Durability> durable;
  ASSERT_TRUE(Durability::open(dyn_graph(), dyn_params(), durable_options(dir),
                               &durable)
                  .ok());
  ServerConfig cfg = quiet_config();
  cfg.enable_faults = true;
  cfg.fault_seed = 23;
  cfg.faults.drop_connection = 0.2;  // responses vanish mid-roundtrip
  cfg.faults.tear_write = 0.1;
  QueryServer server(*durable, cfg);
  ASSERT_TRUE(server.listen_tcp(0).ok());

  ClientConfig ccfg;
  ccfg.max_retries = 8;
  ccfg.backoff_base_ms = 1;
  ccfg.backoff_max_ms = 4;
  ccfg.seed = 5;
  QueryClient client;
  ASSERT_TRUE(QueryClient::connect_tcp(server.port(), ccfg, &client).ok());

  std::uint64_t acked = 0, lost = 0;
  for (int i = 0; i < 12; ++i) {
    UpdateResponse ur;
    const Status s =
        client.update({{static_cast<vid>(i % 50),
                        static_cast<vid>(50 + i % 50), 2.0}},
                      {}, &ur);
    if (s.ok() && ur.status == StatusCode::kOk) {
      ++acked;
    } else {
      ++lost;  // retries exhausted — MAY have applied (ack lost forever)
    }
  }
  // The invariant the WAL + dedup table exist for: however many responses
  // the injector ate, a batch applies at most once no matter how many
  // attempts carried it. Every acked batch applied exactly once; a batch
  // whose every ack was eaten may or may not have landed — never twice.
  EXPECT_GT(acked, 0u);
  EXPECT_GE(durable->engine().epoch(), acked);
  EXPECT_LE(durable->engine().epoch(), acked + lost);
  // updates_applied counts actual applies, so it tracks the epoch even
  // when the response never reached the client.
  EXPECT_EQ(server.stats().updates_applied, durable->engine().epoch());

  client.close();
  server.stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(DurableServer, PeerVanishingMidResponseDoesNotKillTheProcess) {
  // ignore_sigpipe() coverage: a client that sends a query and disappears
  // leaves the server writing into a closed socket. Without SIGPIPE
  // ignored the whole process dies; with it the write fails with EPIPE,
  // the connection is released, and the next client is served normally.
  const std::string dir = durable_dir("sigpipe");
  std::unique_ptr<Durability> durable;
  ASSERT_TRUE(Durability::open(dyn_graph(), dyn_params(), durable_options(dir),
                               &durable)
                  .ok());
  QueryServer server(*durable, quiet_config());
  server.start();

  for (int round = 0; round < 3; ++round) {
    FdStream sfd, cfd;
    ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
    server.serve_stream(std::move(sfd));
    std::vector<std::uint8_t> bytes;
    QueryRequest req;
    req.id = 1;
    req.deadline_ms = 5000;
    req.pairs = {{0, 50}};
    encode_query_request(bytes, req);
    ASSERT_TRUE(cfd.write_frame(bytes, Deadline::after_ms(5000)).ok());
    cfd.close();  // vanish before the response is written
  }

  // The server survived; a well-behaved client still gets answers.
  FdStream sfd, cfd;
  ASSERT_TRUE(make_socketpair(&sfd, &cfd).ok());
  server.serve_stream(std::move(sfd));
  ClientConfig ccfg;
  ccfg.max_retries = 0;
  QueryClient client(std::move(cfd), ccfg);
  QueryResponse resp;
  ASSERT_TRUE(client.query({{0, 50}}, 5000, &resp).ok());
  EXPECT_EQ(resp.status, StatusCode::kOk);

  client.close();
  server.stop();
  EXPECT_EQ(server.open_connections(), 0u);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(DurableServer, DestroyedFaultedServerLeavesNoSwapHookBehind) {
  // A faulted server wires its injector's kSwap site into the engine's
  // swap hook. The Durability (and its engine) outlives the server, so
  // the destructor must take the hook back: an update applied after the
  // server is gone would otherwise call into the freed injector.
  const std::string dir = durable_dir("swap_hook");
  std::unique_ptr<Durability> durable;
  ASSERT_TRUE(Durability::open(dyn_graph(), dyn_params(), durable_options(dir),
                               &durable)
                  .ok());
  {
    ServerConfig cfg = quiet_config();
    cfg.enable_faults = true;
    cfg.fault_seed = 3;
    cfg.faults.swap_stall = 1.0;
    cfg.faults.max_delay_us = 100;
    QueryServer server(*durable, cfg);
    server.start();
  }
  GraphDelta delta;
  delta.insert = {{0, 77, 1.0}};
  EXPECT_EQ(durable->engine().apply(delta).epoch, 1u);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(QueryServer, StopIsGracefulAndIdempotent) {
  const Env& e = env();
  QueryServer server(e.g, e.engine, quiet_config());
  ASSERT_TRUE(server.listen_tcp(0).ok());
  ClientConfig ccfg;
  ccfg.max_retries = 0;
  QueryClient client;
  ASSERT_TRUE(QueryClient::connect_tcp(server.port(), ccfg, &client).ok());
  ASSERT_TRUE(client.ping().ok());

  server.stop();
  server.stop();  // idempotent
  EXPECT_EQ(server.open_connections(), 0u);

  // The stopped server's side is gone; the client finds out on next use.
  QueryResponse resp;
  EXPECT_FALSE(client.query({{0, 1}}, 100, &resp).ok());
}

}  // namespace
}  // namespace parsh::server
