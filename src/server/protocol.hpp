// Wire protocol of the approx-SSSP query service.
//
// Length-prefixed binary frames over a byte stream (TCP socket, Unix
// socketpair or pipe). Every frame:
//
//   offset  size  field
//   0       2     magic 0x5350 ("PS", little-endian u16)
//   2       1     protocol version (kProtocolVersion)
//   3       1     frame type (FrameType)
//   4       4     payload length in bytes (little-endian u32)
//   8       len   payload
//
// All integers are little-endian fixed-width; doubles are IEEE-754 bit
// patterns (memcpy'd, the only representation this codebase runs on).
// Parsing is strict: unknown magic/version/type, payloads above
// kMaxPayloadBytes, batch counts above kMaxBatchPairs, or payloads whose
// length disagrees with their count field are rejected with a typed
// Status — a malformed frame can desynchronize the stream, so the server
// answers with an ERROR frame and closes the connection rather than
// guessing where the next frame starts. Vertex-id range checks against
// the loaded graph happen per query at admission (OUT_OF_RANGE answers),
// not at decode: the frame is well-formed, the request content is not.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "server/status.hpp"
#include "util/types.hpp"

namespace parsh::server {

inline constexpr std::uint16_t kMagic = 0x5350;  // "PS"
/// v2 added graph updates: the kUpdateRequest/kUpdateResponse frames and a
/// serving-epoch field in every query response. v3 makes updates durable
/// and exactly-once: update request payloads carry (client_id, sequence)
/// so a retried batch can be recognized and answered with its original
/// result instead of re-applied. The server still accepts v1/v2 query,
/// ping and stats frames (their payloads are unchanged) but update frames
/// must arrive at v3 — the dedup identity is not optional once retries
/// exist — and every response goes out at v3.
inline constexpr std::uint8_t kProtocolVersion = 3;
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Frames larger than this are rejected before the payload is read (a
/// 4 GiB length prefix must not allocate 4 GiB).
inline constexpr std::size_t kMaxPayloadBytes = 1u << 20;
/// Most query pairs one request frame may carry.
inline constexpr std::size_t kMaxBatchPairs = 4096;
/// Most edges (inserts + removes together) one update frame may carry.
inline constexpr std::size_t kMaxUpdateEdges = 32'768;
/// Deadlines are capped: nobody waits a minute for a distance.
inline constexpr std::uint32_t kMaxDeadlineMs = 60'000;

enum class FrameType : std::uint8_t {
  kQueryRequest = 1,
  kQueryResponse = 2,
  kPing = 3,
  kPong = 4,
  kStatsRequest = 5,
  kStatsResponse = 6,
  /// Server -> client: the previous frame was unparseable; the connection
  /// closes after this frame. Payload: status code u32 + utf8 detail.
  kError = 7,
  /// v2 only: a batched graph mutation (see UpdateRequest).
  kUpdateRequest = 8,
  /// v2 only: verdict + rebuild statistics for one update batch.
  kUpdateResponse = 9,
};

[[nodiscard]] constexpr bool frame_type_known(std::uint8_t t) {
  return t >= 1 && t <= 9;
}

/// A parsed frame: type plus raw payload bytes.
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;
};

// ---- request / response messages --------------------------------------------

/// Client -> server: a batch of s-t distance queries under one deadline.
struct QueryRequest {
  std::uint64_t id = 0;          ///< echoed in the response
  std::uint32_t deadline_ms = 0; ///< 0 = server default; capped at kMaxDeadlineMs
  std::uint32_t flags = 0;       ///< reserved (must be 0 in v1)
  std::vector<std::pair<vid, vid>> pairs;
};

/// One answer inside a query response.
struct QueryAnswer {
  StatusCode status = StatusCode::kOk;
  double estimate = 0;       ///< +inf encodes "unreached/unanswered"
  std::uint32_t scale = 0;   ///< distance scale that answered
};

/// Response-level flag bits.
inline constexpr std::uint32_t kRespFlagDegraded = 1u << 0;  ///< served from a degraded tier
inline constexpr std::uint32_t kRespFlagPartial = 1u << 1;   ///< some answers are partial

/// Server -> client: the batch verdict. `status` is the frame-level
/// outcome (a shed request carries kResourceExhausted here and no
/// answers); per-query outcomes live in `answers[i].status`.
struct QueryResponse {
  std::uint64_t id = 0;
  StatusCode status = StatusCode::kOk;
  std::uint32_t retry_after_ms = 0;  ///< backoff hint when shed
  std::uint32_t flags = 0;
  /// Graph epoch the whole batch was served from (v2). 0 on a static
  /// server or before the first update; a value below the newest accepted
  /// update means the answers are one swap stale — the contract is that a
  /// batch is always internally consistent, never that it is newest.
  std::uint64_t epoch = 0;
  std::vector<QueryAnswer> answers;
};

/// Client -> server (v3): a batched graph mutation. Inserts double as
/// reweights; removes delete if present (GraphDelta semantics). Updates
/// are applied on the connection's reader thread — they never occupy a
/// query worker and never shed queries — and queries in flight finish on
/// the pre-update snapshot.
///
/// Exactly-once identity: (client_id, sequence). A client picks one
/// nonzero client_id for its lifetime and numbers its update batches
/// 1, 2, 3, …; a retry re-sends the SAME sequence (under a fresh frame
/// id), and a durable server answers a sequence it already applied with
/// the original result (kUpdateFlagDuplicate set) instead of re-applying.
/// client_id 0 opts out: every such batch is applied unconditionally
/// (still durably logged), which is only safe for callers that never
/// retry.
struct UpdateRequest {
  std::uint64_t id = 0;     ///< echoed in the response
  std::uint32_t flags = 0;  ///< reserved (must be 0)
  std::uint64_t client_id = 0;  ///< exactly-once identity; 0 = no dedup
  std::uint64_t sequence = 0;   ///< per-client batch number, from 1
  std::vector<Edge> insert;
  std::vector<Edge> remove;  ///< weight field ignored
};

/// Response-level flag: the rebuild recomputed every scale (the ladder
/// moved, or force_full_rebuild was set).
inline constexpr std::uint32_t kUpdateFlagFullRebuild = 1u << 0;
/// Response-level flag (v3): this sequence was already applied; the
/// response replays the original verdict and nothing was re-applied.
inline constexpr std::uint32_t kUpdateFlagDuplicate = 1u << 1;

/// Server -> client (v2): one update batch's verdict. On kOk the epoch is
/// the one the new snapshot serves as, and the dirty/total counters say
/// how much the incremental path actually recomputed. A static server
/// (no DynamicApproxShortestPaths) answers kUnavailable; a batch with an
/// out-of-range endpoint answers kOutOfRange and applies nothing.
struct UpdateResponse {
  std::uint64_t id = 0;
  StatusCode status = StatusCode::kOk;
  std::uint32_t flags = 0;
  std::uint64_t epoch = 0;
  double rebuild_ms = 0;
  std::uint32_t dirty_scales = 0;
  std::uint32_t total_scales = 0;
  std::uint64_t dirty_clusters = 0;
  std::uint64_t total_clusters = 0;
  std::uint64_t inserted = 0;
  std::uint64_t removed = 0;
  std::uint64_t reweighted = 0;
  std::uint64_t noops = 0;
};

/// Every server counter, declared once, in wire order: field i of a
/// kStatsResponse payload is entry i of this list, so the list is append
/// only. COUNTER(name) is a tally ServerMetrics keeps
/// (server/metrics.hpp); INJECTED(name) is read from the fault injector
/// when the snapshot is taken. StatsSnapshot, ServerMetrics, its
/// snapshot() and the stats encoder and decoder all expand this list.
#define PARSH_SERVER_STATS(COUNTER, INJECTED)                                 \
  COUNTER(frames_received)                                                    \
  COUNTER(invalid_frames)                                                     \
  COUNTER(requests_admitted)                                                  \
  COUNTER(requests_shed)                                                      \
  COUNTER(queries_ok)                                                         \
  COUNTER(queries_deadline_exceeded)                                          \
  COUNTER(queries_out_of_range)                                               \
  COUNTER(queries_degraded)                                                   \
  COUNTER(batches_served)                                                     \
  COUNTER(connections_opened)                                                 \
  COUNTER(connections_closed)                                                 \
  INJECTED(faults_injected)                                                   \
  COUNTER(pool_checkout_timeouts)                                             \
  COUNTER(updates_applied)                                                    \
  COUNTER(updates_rejected)                                                   \
  COUNTER(stale_batches)                                                      \
  /* v3 durability counters (appended; older clients ignore them). */         \
  COUNTER(updates_deduped)     /* duplicates answered from the table */       \
  COUNTER(wal_records)         /* records appended to the WAL */              \
  COUNTER(wal_fsyncs)          /* fsyncs issued by the WAL policy */          \
  COUNTER(checkpoints_written)                                                \
  COUNTER(wal_failures)        /* failed appends/fsyncs, update unapplied */  \
  COUNTER(recovered_updates)   /* WAL records replayed at startup */

/// Server counters snapshot carried by a kStatsResponse.
struct StatsSnapshot {
#define PARSH_STATS_FIELD(name) std::uint64_t name = 0;
  PARSH_SERVER_STATS(PARSH_STATS_FIELD, PARSH_STATS_FIELD)
#undef PARSH_STATS_FIELD
};

// ---- encoding ---------------------------------------------------------------
// Encoders append a complete frame (header + payload) to `out`, which can
// then be handed to the transport in one write.

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  const std::uint8_t* payload, std::size_t len);

void encode_query_request(std::vector<std::uint8_t>& out, const QueryRequest& req);
void encode_query_response(std::vector<std::uint8_t>& out, const QueryResponse& resp);
void encode_update_request(std::vector<std::uint8_t>& out, const UpdateRequest& req);
void encode_update_response(std::vector<std::uint8_t>& out, const UpdateResponse& resp);
void encode_ping(std::vector<std::uint8_t>& out, std::uint64_t nonce, bool pong);
void encode_stats_request(std::vector<std::uint8_t>& out);
void encode_stats_response(std::vector<std::uint8_t>& out, const StatsSnapshot& s);
void encode_error(std::vector<std::uint8_t>& out, const Status& status);

// ---- decoding ---------------------------------------------------------------

/// Validate a frame header. On success fills type/payload_len.
[[nodiscard]] Status parse_frame_header(const std::uint8_t header[kFrameHeaderBytes],
                                        FrameType* type, std::uint32_t* payload_len);

[[nodiscard]] Status decode_query_request(const std::vector<std::uint8_t>& payload,
                                          QueryRequest* out);
[[nodiscard]] Status decode_query_response(const std::vector<std::uint8_t>& payload,
                                           QueryResponse* out);
[[nodiscard]] Status decode_update_request(const std::vector<std::uint8_t>& payload,
                                           UpdateRequest* out);
[[nodiscard]] Status decode_update_response(const std::vector<std::uint8_t>& payload,
                                            UpdateResponse* out);
[[nodiscard]] Status decode_ping(const std::vector<std::uint8_t>& payload,
                                 std::uint64_t* nonce);
[[nodiscard]] Status decode_stats_response(const std::vector<std::uint8_t>& payload,
                                           StatsSnapshot* out);
[[nodiscard]] Status decode_error(const std::vector<std::uint8_t>& payload,
                                  Status* out);

}  // namespace parsh::server
