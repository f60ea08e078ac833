#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "cluster/est_cluster.hpp"
#include "graph/digest.hpp"
#include "graph/pcsr.hpp"
#include "hopset/weighted_hopset.hpp"
#include "parallel/work_depth.hpp"
#include "server/protocol.hpp"
#include "server/wal.hpp"
#include "spanner/spanner.hpp"
#include "spanner/verify.hpp"
#include "sssp/dynamic_approx.hpp"
#include "sssp/sssp_workspace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace parsh;
using namespace parsh::server;

namespace {

/// Requests back-to-back in the window sssp.source_repeat_frac looks at:
/// a few admitted batches' worth at the workloads' offered rates.
constexpr std::size_t kRepeatWindow = 16;

std::vector<std::uint8_t> payload(const std::vector<std::uint8_t>& frame) {
  return {frame.begin() + kFrameHeaderBytes, frame.end()};
}

/// `count` weight-banded batches of `edges` updates each (make_update_batch),
/// every batch drawn against the graph the previous ones left. `*final`
/// receives that last graph.
std::vector<GraphDelta> make_update_stream(const Graph& base, double ratio, std::size_t count,
                                           std::size_t edges, std::uint64_t seed,
                                           Graph* final) {
  const Rng rng = Rng(seed).split(0xdb);
  std::vector<GraphDelta> out;
  Graph g = base;
  for (std::size_t b = 0; b < count; ++b) {
    out.push_back(make_update_batch(g, rng.split(b), ratio, edges));
    g = g.apply_delta(out.back()).graph;
  }
  *final = std::move(g);
  return out;
}

}  // namespace

void drive_cluster_and_hopset(const Graph& g, double k, std::size_t reps,
                              const Graph& hopset_g, const WeightedHopsetParams& hp,
                              std::uint64_t seed, SpanRecorder& spans, Report& r) {
  const Rng algo = Rng(seed).split(0xc1);
  const double beta = std::log(static_cast<double>(g.num_vertices())) / (2.0 * k);
  EstClusterWorkspace cws;
  std::vector<double> est_ms;
  std::uint64_t work = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const wd::Region region;
    const std::int64_t sp = spans.begin("cluster.est_cluster", 100 + rep);
    const Clustering c = est_cluster(g, beta, algo.bits(rep), cws);
    spans.end(sp);
    est_ms.push_back(spans.seconds(sp) * 1e3);
    work = region.delta().work;
    r.check(c.cluster_of.size() == g.num_vertices(), "clustering covers every vertex");
  }
  r.set("cluster.est_cluster_ms", median(est_ms), "ms");
  r.set("cluster.work", static_cast<double>(work), "edges");
  r.samples["cluster.est_cluster_ms"] = reps;

  EstClusterWorkspace hws;
  SsspWorkspacePool pool;
  const std::int64_t sp = spans.begin("hopset.build", 200);
  const WeightedHopset h = build_weighted_hopset(hopset_g, hp, hws, pool);
  spans.end(sp);
  r.set("hopset.build_ms", spans.seconds(sp) * 1e3, "ms");
  r.check(!h.scales.empty(), "hopset has scales");
  r.set("parallel.team_rounds",
        static_cast<double>(cws.team_rounds() / reps + hws.team_rounds()), "rounds");
  r.set("parallel.sequential_rounds",
        static_cast<double>(cws.sequential_rounds() / reps + hws.sequential_rounds()),
        "rounds");
  r.set("parallel.pull_rounds",
        static_cast<double>(cws.pull_rounds() / reps + hws.pull_rounds()), "rounds");
}

void drive_spanners(const Graph& g, double k, std::size_t reps, std::uint64_t seed,
                    SpanRecorder& spans, Report& r) {
  const Rng algo = Rng(seed).split(0x5a);
  std::vector<double> us_ms, ws_ms, edges;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    std::int64_t sp = spans.begin("spanner.unweighted", 300 + rep);
    const SpannerResult us = unweighted_spanner(g, k, algo.bits(rep));
    spans.end(sp);
    us_ms.push_back(spans.seconds(sp) * 1e3);
    edges.push_back(static_cast<double>(us.edges.size()));
    sp = spans.begin("spanner.weighted", 300 + rep);
    const SpannerResult ws = weighted_spanner(g, k, algo.bits(1000 + rep));
    spans.end(sp);
    ws_ms.push_back(spans.seconds(sp) * 1e3);
    r.check(is_subgraph(g, us.edges) && is_subgraph(g, ws.edges), "spanners are subgraphs");
  }
  r.set("spanner.unweighted_ms", mean(us_ms), "ms");
  r.set("spanner.weighted_ms", mean(ws_ms), "ms");
  r.set("spanner.edges", mean(edges), "count");
  r.samples["spanner.unweighted_ms"] = reps;
  r.samples["spanner.weighted_ms"] = reps;
}

QueryReplay replay_queries(const ApproxShortestPaths& engine,
                           const std::vector<PairList>& requests, SpanRecorder& spans,
                           Report& r) {
  QueryReplay out;
  SsspWorkspace ws;
  std::vector<double> pair_us, rounds, relax;
  std::map<std::size_t, std::size_t> scale_hist;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::uint64_t id = 1'000'000 + i;
    const std::int64_t root = spans.begin("replay.request", id);
    std::int64_t cs = spans.begin("server.codec", id, root);
    QueryRequest req;
    req.id = i + 1;
    req.deadline_ms = kDeadlineMs;
    req.pairs = requests[i];
    std::vector<std::uint8_t> bytes;
    encode_query_request(bytes, req);
    QueryRequest back;
    const Status ds = decode_query_request(payload(bytes), &back);
    spans.end(cs);
    double codec_s = spans.seconds(cs);
    QueryResponse resp;
    resp.id = back.id;
    double sssp_s = 0;
    for (const auto& [src, dst] : back.pairs) {
      const std::int64_t qs = spans.begin("sssp.query", id, root);
      const auto qr = engine.query(src, dst, ws);
      spans.end(qs);
      sssp_s += spans.seconds(qs);
      pair_us.push_back(spans.seconds(qs) * 1e6);
      rounds.push_back(static_cast<double>(qr.rounds));
      relax.push_back(static_cast<double>(qr.relaxations));
      ++scale_hist[std::min<std::size_t>(qr.scale_used, 5)];
      resp.answers.push_back({StatusCode::kOk, static_cast<double>(qr.estimate),
                              static_cast<std::uint32_t>(qr.scale_used)});
    }
    cs = spans.begin("server.codec", id, root);
    bytes.clear();
    encode_query_response(bytes, resp);
    QueryResponse resp_back;
    const Status rs = decode_query_response(payload(bytes), &resp_back);
    spans.end(cs);
    codec_s += spans.seconds(cs);
    spans.end(root);
    out.codec_us.push_back(codec_s * 1e6);
    out.request_sssp_ms.push_back(sssp_s * 1e3);
    r.check(ds.ok() && rs.ok() && back.pairs == req.pairs &&
                resp_back.answers.size() == req.pairs.size(),
            "codec round trip");
  }
  r.set("sssp.pair_us_p50", median(pair_us), "us");
  r.samples["sssp.pair_us_p50"] = pair_us.size();
  if (percentile_supported(pair_us.size(), 0.99)) {
    r.set("sssp.pair_us_p99", quantile(pair_us, 0.99), "us");
    r.samples["sssp.pair_us_p99"] = pair_us.size();
  }
  r.set("sssp.rounds_per_pair", mean(rounds), "rounds");
  r.set("sssp.relaxations_per_pair", mean(relax), "edges");
  for (std::size_t k = 0; k <= 5; ++k) {
    r.set("sssp.scale_used_frac." + std::to_string(k) + (k == 5 ? "plus" : ""),
          pair_us.empty() ? 0
                          : static_cast<double>(scale_hist[k]) /
                                static_cast<double>(pair_us.size()),
          "fraction");
  }
  r.set("sssp.source_repeat_frac", source_repeat_frac(requests, kRepeatWindow), "fraction");
  r.set("server.codec_us", median(out.codec_us), "us");
  r.samples["server.codec_us"] = out.codec_us.size();
  return out;
}

void report_query_unaccounted(double untraced_p50_ms, const std::vector<double>& rtt_us,
                              const QueryReplay& q, Report& r) {
  const double accounted_ms =
      median(rtt_us) / 1e3 + median(q.codec_us) / 1e3 + median(q.request_sssp_ms);
  r.set("server.query_unaccounted_ms", untraced_p50_ms - accounted_ms, "ms");
}

UpdateReplay replay_updates(const Graph& base, const std::vector<GraphDelta>& batches,
                            std::uint64_t final_digest, const ApproxShortestPaths::Params& p,
                            DurabilityOptions opt, const std::string& workdir,
                            SpanRecorder& spans, Report& r) {
  UpdateReplay out;
  const std::uint64_t n = batches.size();

  // Replay 1: the update frames' codec around Durability::handle_update.
  // The acks are kept for replay 4's WAL records.
  std::vector<UpdateResponse> acks;
  {
    opt.dir = make_work_dir(workdir, "durable-replay");
    std::unique_ptr<Durability> hd;
    r.check(Durability::open(base, p, opt, &hd).ok(), "replay durability opens");
    for (std::uint64_t b = 0; hd && b < n; ++b) {
      const std::uint64_t id = 2'000'000 + b;
      const std::int64_t root = spans.begin("replay.update", id);
      std::int64_t cs = spans.begin("server.codec", id, root);
      UpdateRequest req;
      req.id = b + 1;
      req.client_id = 7;
      req.sequence = b + 1;
      req.insert = batches[b].insert;
      req.remove = batches[b].remove;
      std::vector<std::uint8_t> bytes;
      encode_update_request(bytes, req);
      UpdateRequest back;
      const Status ds = decode_update_request(payload(bytes), &back);
      spans.end(cs);
      double codec_s = spans.seconds(cs);
      const std::int64_t hs = spans.begin("server.handle_update", id, root);
      UpdateResponse resp;
      resp.id = back.id;
      hd->handle_update(back, &resp);
      spans.end(hs);
      out.handle_ms.push_back(spans.seconds(hs) * 1e3);
      cs = spans.begin("server.codec", id, root);
      bytes.clear();
      encode_update_response(bytes, resp);
      UpdateResponse ack;
      const Status rs = decode_update_response(payload(bytes), &ack);
      spans.end(cs);
      codec_s += spans.seconds(cs);
      spans.end(root);
      out.codec_us.push_back(codec_s * 1e6);
      acks.push_back(ack);
      r.check(ds.ok() && rs.ok() && ack.status == StatusCode::kOk && ack.epoch == b + 1,
              "replayed durable update " + std::to_string(b + 1));
    }
    hd.reset();
    remove_dir(opt.dir);
  }

  // Replay 2: Graph::apply_delta and rebuild_weighted_hopset on warm
  // workspaces of the harness's own.
  {
    EstClusterWorkspace cws;
    SsspWorkspacePool pool;
    WeightedHopset h = build_weighted_hopset(base, p.hopset, cws, pool);
    Graph g = base;
    std::uint64_t dirty_s = 0, total_s = 0, dirty_c = 0, total_c = 0;
    for (std::uint64_t b = 0; b < n; ++b) {
      const std::uint64_t id = 3'000'000 + b;
      std::int64_t sp = spans.begin("graph.apply_delta", id);
      DeltaResult dr = g.apply_delta(batches[b]);
      spans.end(sp);
      out.apply_ms.push_back(spans.seconds(sp) * 1e3);
      sp = spans.begin("hopset.rebuild", id);
      HopsetRebuildStats st;
      h = rebuild_weighted_hopset(dr.graph, p.hopset, h, dr.changes, cws, pool, &st);
      spans.end(sp);
      out.rebuild_ms.push_back(spans.seconds(sp) * 1e3);
      dirty_s += st.dirty_scales;
      total_s += st.total_scales;
      dirty_c += st.dirty_clusters;
      total_c += st.total_clusters;
      g = std::move(dr.graph);
    }
    r.check(graph_digest(g) == final_digest, "apply_delta replay reaches the expected graph");
    r.set("hopset.dirty_scale_frac",
          total_s ? static_cast<double>(dirty_s) / static_cast<double>(total_s) : 0,
          "fraction");
    r.set("hopset.dirty_cluster_frac",
          total_c ? static_cast<double>(dirty_c) / static_cast<double>(total_c) : 0,
          "fraction");
  }

  // Replay 3: the dynamic engine's whole apply (merge + rebuild + engine).
  {
    DynamicApproxShortestPaths dyn(base, p);
    for (std::uint64_t b = 0; b < n; ++b) {
      const std::int64_t sp = spans.begin("sssp.dynamic_apply", 4'000'000 + b);
      (void)dyn.apply(batches[b]);
      spans.end(sp);
      out.dyn_ms.push_back(spans.seconds(sp) * 1e3);
    }
  }

  // Replay 4: WalWriter::append with an fsync per record.
  {
    const std::string wdir = make_work_dir(workdir, "wal-replay");
    WalWriter w;
    r.check(w.open(wdir, 1, WalOptions{}).ok(), "replay WAL opens");
    for (std::uint64_t b = 0; w.is_open() && b < n; ++b) {
      WalRecord rec;
      rec.epoch = b + 1;
      rec.client_id = 7;
      rec.sequence = b + 1;
      if (b < acks.size()) rec.result = acks[b];
      rec.delta = batches[b];
      const std::int64_t sp = spans.begin("server.wal_append", 5'000'000 + b);
      const Status st = w.append(rec);
      spans.end(sp);
      out.wal_ms.push_back(spans.seconds(sp) * 1e3);
      r.check(st.ok(), "replay WAL append");
    }
    w.close();
    remove_dir(wdir);
  }

  r.set("graph.apply_delta_ms", median(out.apply_ms), "ms");
  r.set("hopset.rebuild_ms", median(out.rebuild_ms), "ms");
  r.set("sssp.dynamic_apply_ms", median(out.dyn_ms), "ms");
  r.set("server.handle_update_ms", median(out.handle_ms), "ms");
  r.set("server.wal_append_ms", median(out.wal_ms), "ms");
  r.set("server.update_codec_us", median(out.codec_us), "us");
  for (const char* k : {"graph.apply_delta_ms", "hopset.rebuild_ms", "sssp.dynamic_apply_ms",
                        "server.handle_update_ms", "server.wal_append_ms",
                        "server.update_codec_us"}) {
    r.samples[k] = n;
  }
  return out;
}

std::vector<double> replay_checkpoints(const Graph& g, std::uint64_t epoch, std::size_t reps,
                                       const std::string& workdir, Report& r) {
  const std::uint64_t digest = graph_digest(g);
  std::vector<double> ckpt_ms, write_ms, load_ms;
  const std::string cdir = make_work_dir(workdir, "ckpt-replay");
  Manifest man;
  man.epoch = epoch;
  man.wal_first_epoch = epoch + 1;
  for (std::size_t i = 0; i < reps; ++i) {
    double t0 = now_s();
    r.check(write_checkpoint(cdir, g, man).ok(), "replay checkpoint");
    ckpt_ms.push_back((now_s() - t0) * 1e3);
    const std::string path = cdir + "/graph.pcsr";
    t0 = now_s();
    write_pcsr_file(path, g);
    write_ms.push_back((now_s() - t0) * 1e3);
    t0 = now_s();
    PcsrLoadOptions lo;
    lo.verify_checksums = true;
    const Graph back = load_pcsr_file(path, lo);
    load_ms.push_back((now_s() - t0) * 1e3);
    r.check(graph_digest(back) == digest, "pcsr round trip");
  }
  remove_dir(cdir);
  r.set("server.checkpoint_ms", median(ckpt_ms), "ms");
  r.set("graph.pcsr_write_ms", median(write_ms), "ms");
  r.set("graph.pcsr_load_ms", median(load_ms), "ms");
  return ckpt_ms;
}

void drive_update_layers(const Graph& g, double weight_ratio, std::size_t batches,
                         const ApproxShortestPaths::Params& p, std::uint64_t seed,
                         const std::string& workdir, SpanRecorder& spans, Report& r) {
  Graph final;
  const std::vector<GraphDelta> stream =
      make_update_stream(g, weight_ratio, batches, kProbeBatchEdges, seed, &final);
  DurabilityOptions opt;
  opt.wal.fsync = FsyncPolicy::kEveryBatch;
  (void)replay_updates(g, stream, graph_digest(final), p, opt, workdir, spans, r);
  (void)replay_checkpoints(final, batches, kCheckpointReplays, workdir, r);
}

void report_span_cost(const SpanRecorder& spans, Report& r) {
  r.set("trace.span_cost_us",
        spans.count() ? spans.cost_s() * 1e6 / static_cast<double>(spans.count()) : 0, "us");
}

}  // namespace perfbench
