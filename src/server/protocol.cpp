#include "server/protocol.hpp"

#include <cstring>

namespace parsh::server {

namespace {

// Little-endian fixed-width append helpers. memcpy keeps them UB-free on
// any alignment; the byte order below is the wire format.
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

/// Bounds-checked little-endian cursor over a payload.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : p_(data), len_(len) {}

  bool u32(std::uint32_t* v) {
    if (len_ - off_ < 4) return false;
    std::uint32_t r = 0;
    for (int i = 0; i < 4; ++i) r |= static_cast<std::uint32_t>(p_[off_ + i]) << (8 * i);
    off_ += 4;
    *v = r;
    return true;
  }
  bool u64(std::uint64_t* v) {
    if (len_ - off_ < 8) return false;
    std::uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r |= static_cast<std::uint64_t>(p_[off_ + i]) << (8 * i);
    off_ += 8;
    *v = r;
    return true;
  }
  bool f64(double* v) {
    std::uint64_t bits;
    if (!u64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool bytes(std::string* out, std::size_t n) {
    if (len_ - off_ < n) return false;
    out->assign(reinterpret_cast<const char*>(p_ + off_), n);
    off_ += n;
    return true;
  }
  [[nodiscard]] std::size_t remaining() const { return len_ - off_; }
  [[nodiscard]] bool done() const { return off_ == len_; }

 private:
  const std::uint8_t* p_;
  std::size_t len_;
  std::size_t off_ = 0;
};

Status malformed(const char* what) {
  return Status::fail(StatusCode::kInvalidArgument, what);
}

}  // namespace

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  const std::uint8_t* payload, std::size_t len) {
  put_u16(out, kMagic);
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32(out, static_cast<std::uint32_t>(len));
  out.insert(out.end(), payload, payload + len);
}

Status parse_frame_header(const std::uint8_t header[kFrameHeaderBytes],
                          FrameType* type, std::uint32_t* payload_len) {
  const std::uint16_t magic =
      static_cast<std::uint16_t>(header[0]) | static_cast<std::uint16_t>(header[1]) << 8;
  if (magic != kMagic) return malformed("frame: bad magic");
  // v1/v2 query, ping and stats frames are still honored (their payloads
  // never changed). Update frames must arrive at v3: v3 redefined the
  // update payload to carry the (client_id, sequence) exactly-once
  // identity, so an older update frame cannot be decoded — and accepting
  // one without an identity would silently forfeit dedup under retries.
  if (header[2] < 1 || header[2] > kProtocolVersion) {
    return malformed("frame: unsupported version");
  }
  if (!frame_type_known(header[3])) return malformed("frame: unknown type");
  if (header[2] < 3 && header[3] > 7) {
    return malformed("frame: update frames require protocol v3");
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(header[4 + i]) << (8 * i);
  if (len > kMaxPayloadBytes) return malformed("frame: payload too large");
  *type = static_cast<FrameType>(header[3]);
  *payload_len = len;
  return Status::success();
}

// ---- query request ----------------------------------------------------------
// payload: id u64, deadline_ms u32, flags u32, count u32, count * {s u32, t u32}

void encode_query_request(std::vector<std::uint8_t>& out, const QueryRequest& req) {
  std::vector<std::uint8_t> payload;
  payload.reserve(20 + req.pairs.size() * 8);
  put_u64(payload, req.id);
  put_u32(payload, req.deadline_ms);
  put_u32(payload, req.flags);
  put_u32(payload, static_cast<std::uint32_t>(req.pairs.size()));
  for (const auto& [s, t] : req.pairs) {
    put_u32(payload, s);
    put_u32(payload, t);
  }
  append_frame(out, FrameType::kQueryRequest, payload.data(), payload.size());
}

Status decode_query_request(const std::vector<std::uint8_t>& payload,
                            QueryRequest* out) {
  Reader r(payload.data(), payload.size());
  std::uint32_t count = 0;
  if (!r.u64(&out->id) || !r.u32(&out->deadline_ms) || !r.u32(&out->flags) ||
      !r.u32(&count)) {
    return malformed("query request: truncated header");
  }
  if (out->flags != 0) return malformed("query request: unknown flags");
  if (out->deadline_ms > kMaxDeadlineMs) {
    return malformed("query request: deadline above cap");
  }
  if (count > kMaxBatchPairs) return malformed("query request: batch too large");
  if (r.remaining() != static_cast<std::size_t>(count) * 8) {
    return malformed("query request: count disagrees with payload length");
  }
  out->pairs.clear();
  out->pairs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t s = 0, t = 0;
    if (!r.u32(&s) || !r.u32(&t)) return malformed("query request: truncated pair");
    out->pairs.emplace_back(static_cast<vid>(s), static_cast<vid>(t));
  }
  return Status::success();
}

// ---- query response ---------------------------------------------------------
// payload: id u64, status u32, retry_after_ms u32, flags u32, epoch u64,
//          count u32, count * {status u32, estimate f64, scale u32}

void encode_query_response(std::vector<std::uint8_t>& out, const QueryResponse& resp) {
  std::vector<std::uint8_t> payload;
  payload.reserve(32 + resp.answers.size() * 16);
  put_u64(payload, resp.id);
  put_u32(payload, static_cast<std::uint32_t>(resp.status));
  put_u32(payload, resp.retry_after_ms);
  put_u32(payload, resp.flags);
  put_u64(payload, resp.epoch);
  put_u32(payload, static_cast<std::uint32_t>(resp.answers.size()));
  for (const QueryAnswer& a : resp.answers) {
    put_u32(payload, static_cast<std::uint32_t>(a.status));
    put_f64(payload, a.estimate);
    put_u32(payload, a.scale);
  }
  append_frame(out, FrameType::kQueryResponse, payload.data(), payload.size());
}

Status decode_query_response(const std::vector<std::uint8_t>& payload,
                             QueryResponse* out) {
  Reader r(payload.data(), payload.size());
  std::uint32_t status = 0, count = 0;
  if (!r.u64(&out->id) || !r.u32(&status) || !r.u32(&out->retry_after_ms) ||
      !r.u32(&out->flags) || !r.u64(&out->epoch) || !r.u32(&count)) {
    return malformed("query response: truncated header");
  }
  if (status > static_cast<std::uint32_t>(StatusCode::kInternal)) {
    return malformed("query response: unknown status");
  }
  out->status = static_cast<StatusCode>(status);
  if (count > kMaxBatchPairs) return malformed("query response: batch too large");
  if (r.remaining() != static_cast<std::size_t>(count) * 16) {
    return malformed("query response: count disagrees with payload length");
  }
  out->answers.clear();
  out->answers.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    QueryAnswer a;
    std::uint32_t st = 0;
    if (!r.u32(&st) || !r.f64(&a.estimate) || !r.u32(&a.scale)) {
      return malformed("query response: truncated answer");
    }
    if (st > static_cast<std::uint32_t>(StatusCode::kInternal)) {
      return malformed("query response: unknown answer status");
    }
    a.status = static_cast<StatusCode>(st);
    out->answers.push_back(a);
  }
  return Status::success();
}

// ---- update request ---------------------------------------------------------
// payload (v3): id u64, flags u32, client_id u64, sequence u64,
//          n_insert u32, n_remove u32,
//          n_insert * {u u32, v u32, w f64}, n_remove * {u u32, v u32}

void encode_update_request(std::vector<std::uint8_t>& out, const UpdateRequest& req) {
  std::vector<std::uint8_t> payload;
  payload.reserve(36 + req.insert.size() * 16 + req.remove.size() * 8);
  put_u64(payload, req.id);
  put_u32(payload, req.flags);
  put_u64(payload, req.client_id);
  put_u64(payload, req.sequence);
  put_u32(payload, static_cast<std::uint32_t>(req.insert.size()));
  put_u32(payload, static_cast<std::uint32_t>(req.remove.size()));
  for (const Edge& e : req.insert) {
    put_u32(payload, e.u);
    put_u32(payload, e.v);
    put_f64(payload, e.w);
  }
  for (const Edge& e : req.remove) {
    put_u32(payload, e.u);
    put_u32(payload, e.v);
  }
  append_frame(out, FrameType::kUpdateRequest, payload.data(), payload.size());
}

Status decode_update_request(const std::vector<std::uint8_t>& payload,
                             UpdateRequest* out) {
  Reader r(payload.data(), payload.size());
  std::uint32_t n_ins = 0, n_rem = 0;
  if (!r.u64(&out->id) || !r.u32(&out->flags) || !r.u64(&out->client_id) ||
      !r.u64(&out->sequence) || !r.u32(&n_ins) || !r.u32(&n_rem)) {
    return malformed("update request: truncated header");
  }
  if (out->flags != 0) return malformed("update request: unknown flags");
  if (out->client_id != 0 && out->sequence == 0) {
    return malformed("update request: sequence must start at 1");
  }
  if (static_cast<std::size_t>(n_ins) + n_rem > kMaxUpdateEdges) {
    return malformed("update request: batch too large");
  }
  if (r.remaining() !=
      static_cast<std::size_t>(n_ins) * 16 + static_cast<std::size_t>(n_rem) * 8) {
    return malformed("update request: counts disagree with payload length");
  }
  out->insert.clear();
  out->insert.reserve(n_ins);
  for (std::uint32_t i = 0; i < n_ins; ++i) {
    std::uint32_t u = 0, v = 0;
    double w = 0;
    if (!r.u32(&u) || !r.u32(&v) || !r.f64(&w)) {
      return malformed("update request: truncated insert");
    }
    // Weight sanity belongs to the frame, not admission: a non-positive
    // or non-finite weight can never be valid for any graph.
    if (!(w > 0) || w != w || w > 1e300) {
      return malformed("update request: bad insert weight");
    }
    out->insert.push_back({static_cast<vid>(u), static_cast<vid>(v), w});
  }
  out->remove.clear();
  out->remove.reserve(n_rem);
  for (std::uint32_t i = 0; i < n_rem; ++i) {
    std::uint32_t u = 0, v = 0;
    if (!r.u32(&u) || !r.u32(&v)) return malformed("update request: truncated remove");
    out->remove.push_back({static_cast<vid>(u), static_cast<vid>(v), 1});
  }
  return Status::success();
}

// ---- update response --------------------------------------------------------
// payload: id u64, status u32, flags u32, epoch u64, rebuild_ms f64,
//          dirty_scales u32, total_scales u32, dirty_clusters u64,
//          total_clusters u64, inserted u64, removed u64, reweighted u64,
//          noops u64

void encode_update_response(std::vector<std::uint8_t>& out, const UpdateResponse& resp) {
  std::vector<std::uint8_t> payload;
  payload.reserve(80);
  put_u64(payload, resp.id);
  put_u32(payload, static_cast<std::uint32_t>(resp.status));
  put_u32(payload, resp.flags);
  put_u64(payload, resp.epoch);
  put_f64(payload, resp.rebuild_ms);
  put_u32(payload, resp.dirty_scales);
  put_u32(payload, resp.total_scales);
  put_u64(payload, resp.dirty_clusters);
  put_u64(payload, resp.total_clusters);
  put_u64(payload, resp.inserted);
  put_u64(payload, resp.removed);
  put_u64(payload, resp.reweighted);
  put_u64(payload, resp.noops);
  append_frame(out, FrameType::kUpdateResponse, payload.data(), payload.size());
}

Status decode_update_response(const std::vector<std::uint8_t>& payload,
                              UpdateResponse* out) {
  Reader r(payload.data(), payload.size());
  std::uint32_t status = 0;
  if (!r.u64(&out->id) || !r.u32(&status) || !r.u32(&out->flags) ||
      !r.u64(&out->epoch) || !r.f64(&out->rebuild_ms) ||
      !r.u32(&out->dirty_scales) || !r.u32(&out->total_scales) ||
      !r.u64(&out->dirty_clusters) || !r.u64(&out->total_clusters) ||
      !r.u64(&out->inserted) || !r.u64(&out->removed) ||
      !r.u64(&out->reweighted) || !r.u64(&out->noops) || !r.done()) {
    return malformed("update response: bad payload");
  }
  if (status > static_cast<std::uint32_t>(StatusCode::kInternal)) {
    return malformed("update response: unknown status");
  }
  out->status = static_cast<StatusCode>(status);
  return Status::success();
}

// ---- ping / stats / error ---------------------------------------------------

void encode_ping(std::vector<std::uint8_t>& out, std::uint64_t nonce, bool pong) {
  std::vector<std::uint8_t> payload;
  put_u64(payload, nonce);
  append_frame(out, pong ? FrameType::kPong : FrameType::kPing, payload.data(),
               payload.size());
}

Status decode_ping(const std::vector<std::uint8_t>& payload, std::uint64_t* nonce) {
  Reader r(payload.data(), payload.size());
  if (!r.u64(nonce) || !r.done()) return malformed("ping: bad payload");
  return Status::success();
}

void encode_stats_request(std::vector<std::uint8_t>& out) {
  append_frame(out, FrameType::kStatsRequest, nullptr, 0);
}

void encode_stats_response(std::vector<std::uint8_t>& out, const StatsSnapshot& s) {
  std::vector<std::uint8_t> payload;
#define PARSH_STATS_VALUE(name) s.name,
  const std::uint64_t fields[] = {PARSH_SERVER_STATS(PARSH_STATS_VALUE, PARSH_STATS_VALUE)};
#undef PARSH_STATS_VALUE
  put_u32(payload, static_cast<std::uint32_t>(std::size(fields)));
  for (std::uint64_t f : fields) put_u64(payload, f);
  append_frame(out, FrameType::kStatsResponse, payload.data(), payload.size());
}

Status decode_stats_response(const std::vector<std::uint8_t>& payload,
                             StatsSnapshot* out) {
  Reader r(payload.data(), payload.size());
  std::uint32_t count = 0;
  if (!r.u32(&count)) return malformed("stats: truncated");
  // Appended fields from a newer server decode as "what we know".
#define PARSH_STATS_SLOT(name) &out->name,
  std::uint64_t* fields[] = {PARSH_SERVER_STATS(PARSH_STATS_SLOT, PARSH_STATS_SLOT)};
#undef PARSH_STATS_SLOT
  if (r.remaining() != static_cast<std::size_t>(count) * 8) {
    return malformed("stats: count disagrees with payload length");
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t v = 0;
    if (!r.u64(&v)) return malformed("stats: truncated field");
    if (i < std::size(fields)) *fields[i] = v;
  }
  return Status::success();
}

void encode_error(std::vector<std::uint8_t>& out, const Status& status) {
  // Detail messages are advisory; cap them so an error path can never
  // build an oversized frame.
  const std::size_t n = status.message.size() < 256 ? status.message.size() : 256;
  std::vector<std::uint8_t> payload;
  payload.reserve(4 + n);
  put_u32(payload, static_cast<std::uint32_t>(status.code));
  payload.insert(payload.end(), status.message.begin(), status.message.begin() + n);
  append_frame(out, FrameType::kError, payload.data(), payload.size());
}

Status decode_error(const std::vector<std::uint8_t>& payload, Status* out) {
  Reader r(payload.data(), payload.size());
  std::uint32_t code = 0;
  if (!r.u32(&code)) return malformed("error frame: truncated");
  if (code > static_cast<std::uint32_t>(StatusCode::kInternal)) {
    return malformed("error frame: unknown status");
  }
  out->code = static_cast<StatusCode>(code);
  return r.bytes(&out->message, r.remaining()) ? Status::success()
                                               : malformed("error frame: truncated");
}

}  // namespace parsh::server
