// The traced run's per-layer measurements. Every workload reports every
// per-layer metric named in BENCHMARK.json, measured on its own graphs:
// each function below calls one layer's public functions and reports its
// figures. A layer the workload's own operations reach is driven with the
// workload's own inputs (its requests, its update batches); one they do
// not reach is driven with a small fixed input on the workload's graph, so
// the figure exists everywhere and is read on the workload README.md maps
// it to.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "graph/delta.hpp"
#include "server/checkpoint.hpp"
#include "sssp/approx_query.hpp"

namespace perfbench {

/// Edges per batch of the fixed update input (drive_update_layers).
inline constexpr std::size_t kProbeBatchEdges = 8;
/// Checkpoints and .pcsr round trips per replay_checkpoints call.
inline constexpr std::size_t kCheckpointReplays = 5;
/// Spanner builds per kind, and EST clusterings, per traced run.
inline constexpr std::size_t kSpannerProbeReps = 3;
inline constexpr std::size_t kClusterReps = 3;
/// Pairs replayed through the query path per traced run: enough for a
/// p99 with ten samples beyond it.
inline constexpr std::size_t kReplayPairs = 1200;

/// cluster.est_cluster_ms and cluster.work: `reps` EST clusterings of `g`
/// at Algorithm 2's beta = ln(n) / 2k; hopset.build_ms: one hopset build
/// of `hopset_g`; parallel.*_rounds: the rounds of one clustering plus
/// that hopset build, read from the workspaces' counters.
void drive_cluster_and_hopset(const parsh::Graph& g, double k, std::size_t reps,
                              const parsh::Graph& hopset_g,
                              const parsh::WeightedHopsetParams& hp, std::uint64_t seed,
                              SpanRecorder& spans, Report& r);

/// spanner.unweighted_ms and spanner.weighted_ms (means over `reps`
/// builds) and spanner.edges (unweighted, mean) on `g` at stretch
/// parameter `k`; each build is checked to be a subgraph of `g`.
void drive_spanners(const parsh::Graph& g, double k, std::size_t reps, std::uint64_t seed,
                    SpanRecorder& spans, Report& r);

/// The query path replayed outside in, per request: the request and
/// response frames through the protocol codecs (server.codec_us), then
/// ApproxShortestPaths::query per pair (sssp.pair_us_p50/p99,
/// sssp.rounds_per_pair, sssp.relaxations_per_pair, sssp.scale_used_frac.*;
/// the p99 only when the pairs are enough for it). Also
/// sssp.source_repeat_frac of `requests`.
struct QueryReplay {
  std::vector<double> codec_us;         ///< per request
  std::vector<double> request_sssp_ms;  ///< per request, all its pairs
};
QueryReplay replay_queries(const parsh::ApproxShortestPaths& engine,
                           const std::vector<PairList>& requests, SpanRecorder& spans,
                           Report& r);

/// server.query_unaccounted_ms: what the replayed layers (transport floor,
/// codec, sssp) leave unexplained in a request's untraced median latency:
/// admission wait, worker handoff, scheduling.
void report_query_unaccounted(double untraced_p50_ms, const std::vector<double>& rtt_us,
                              const QueryReplay& q, Report& r);

/// The update path of `batches` (applied in order to `base`) replayed
/// layer by layer, each replay on its own fresh state:
///  1. update frames through the codecs around Durability::handle_update
///     (server.handle_update_ms; the frames' codec time is returned),
///  2. Graph::apply_delta then rebuild_weighted_hopset on warm workspaces
///     (graph.apply_delta_ms, hopset.rebuild_ms, hopset.dirty_scale_frac,
///     hopset.dirty_cluster_frac),
///  3. DynamicApproxShortestPaths::apply (sssp.dynamic_apply_ms),
///  4. WalWriter::append with an fsync per record (server.wal_append_ms).
/// Checks that every replayed update is acknowledged in order and that
/// replay 2 ends on `final_digest`.
struct UpdateReplay {
  std::vector<double> codec_us, handle_ms, apply_ms, rebuild_ms, dyn_ms, wal_ms;
};
UpdateReplay replay_updates(const parsh::Graph& base,
                            const std::vector<parsh::GraphDelta>& batches,
                            std::uint64_t final_digest,
                            const parsh::ApproxShortestPaths::Params& p,
                            parsh::server::DurabilityOptions opt, const std::string& workdir,
                            SpanRecorder& spans, Report& r);

/// server.checkpoint_ms, graph.pcsr_write_ms and graph.pcsr_load_ms:
/// `reps` checkpoints of `g` at `epoch`, and as many .pcsr round trips,
/// each checked against the graph's digest. Returns the checkpoint times.
std::vector<double> replay_checkpoints(const parsh::Graph& g, std::uint64_t epoch,
                                       std::size_t reps, const std::string& workdir,
                                       Report& r);

/// The update, WAL and checkpoint layers on a workload that takes no
/// updates of its own: `batches` batches drawn against `g` (weights in
/// [1, weight_ratio]) through replay_updates, with an fsync per WAL record
/// and no automatic checkpoint, then replay_checkpoints of the graph they
/// leave.
void drive_update_layers(const parsh::Graph& g, double weight_ratio, std::size_t batches,
                         const parsh::ApproxShortestPaths::Params& p, std::uint64_t seed,
                         const std::string& workdir, SpanRecorder& spans, Report& r);

/// trace.span_cost_us: what recording one span costs the traced code.
void report_span_cost(const SpanRecorder& spans, Report& r);

}  // namespace perfbench
