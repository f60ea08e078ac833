#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "util/timer.hpp"

namespace parsh::server {

QueryServer::QueryServer(const Graph& g, const ApproxShortestPaths& engine,
                         ServerConfig cfg)
    : engine_(&engine),
      n_(g.num_vertices()),
      cfg_(cfg),
      injector_(cfg.enable_faults
                    ? std::make_unique<FaultInjector>(cfg.fault_seed, cfg.faults)
                    : nullptr),
      admission_(cfg.admission, &metrics_, injector_.get()) {}

QueryServer::QueryServer(Durability& durable, ServerConfig cfg)
    : durable_(&durable),
      n_(durable.engine().num_vertices()),
      cfg_(cfg),
      injector_(cfg.enable_faults
                    ? std::make_unique<FaultInjector>(cfg.fault_seed, cfg.faults)
                    : nullptr),
      admission_(cfg.admission, &metrics_, injector_.get()) {
  metrics_.recovered_updates.store(durable.recovery().replayed,
                                   std::memory_order_relaxed);
  if (injector_ != nullptr) {
    // The swap site fires on the updating thread with the new snapshot
    // fully built but not yet published — a stall here is the widest
    // query-during-swap window the concurrency tests can ask for.
    FaultInjector* inj = injector_.get();
    durable_->engine().set_swap_hook([inj] {
      const FaultAction act = inj->next(FaultSite::kSwap);
      if (act.kind == FaultAction::Kind::kStall) {
        std::this_thread::sleep_for(std::chrono::microseconds(act.delay_us));
      }
    });
  }
}

QueryServer::~QueryServer() {
  stop();
  // The hook captures this server's injector; the engine outlives us.
  if (durable_ != nullptr && injector_ != nullptr) {
    durable_->engine().set_swap_hook(nullptr);
  }
}

void QueryServer::start() {
  if (started_) return;
  started_ = true;
  // A peer that dies mid-response must surface as EPIPE through the
  // Status taxonomy, never as a process-killing signal.
  ignore_sigpipe();
  const std::size_t pool_size =
      cfg_.pool_workspaces > 0 ? cfg_.pool_workspaces : std::max<std::size_t>(1, cfg_.query_workers);
  pool_.prepare_serving(pool_size);
  for (std::size_t i = 0; i < std::max<std::size_t>(1, cfg_.query_workers); ++i) {
    workers_.emplace_back([this] { worker_loop_(); });
  }
}

Status QueryServer::listen_tcp(std::uint16_t port) {
  start();
  const Status s = listener_.listen_loopback(port);
  if (!s.ok()) return s;
  acceptor_ = std::thread([this] { acceptor_loop_(); });
  return Status::success();
}

void QueryServer::acceptor_loop_() {
  while (!stopping_.load(std::memory_order_acquire)) {
    FdStream stream;
    // Short slices so a stop() that raced the shutdown wakeup is still
    // noticed promptly.
    const Status s = listener_.accept(&stream, Deadline::after_ms(100));
    if (s.ok()) {
      serve_stream(std::move(stream));
      continue;
    }
    if (s.code == StatusCode::kDeadlineExceeded) continue;
    break;  // listener closed or broken
  }
}

void QueryServer::serve_stream(FdStream stream) {
  start();
  auto conn = std::make_shared<Connection>();
  conn->stream = std::move(stream);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn->id = next_conn_id_++;
    conns_.push_back(conn);
  }
  metrics_.bump(metrics_.connections_opened);
  conn->reader = std::thread([this, conn] { reader_loop_(conn.get()); });
}

std::shared_ptr<QueryServer::Connection> QueryServer::find_connection_(
    std::uint64_t id) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& c : conns_) {
    if (c->id == id && !c->closing.load(std::memory_order_acquire)) return c;
  }
  return nullptr;
}

void QueryServer::shutdown_connection_(Connection& conn) {
  const bool first = !conn.closing.exchange(true, std::memory_order_acq_rel);
  {
    // Shutdown under the write mutex: a worker mid-write finishes first,
    // and later writers observe `closing` before touching the stream.
    // The fd itself stays open — only the reader (or stop(), after
    // joining the reader) may close it, so a thread parked in poll can
    // never wake up on a recycled descriptor number.
    std::lock_guard<std::mutex> lock(conn.write_mu);
    conn.stream.shutdown_both();
  }
  if (first) metrics_.bump(metrics_.connections_closed);
}

void QueryServer::release_connection_(Connection& conn) {
  shutdown_connection_(conn);
  // Owner-side close: the reader has exited (we are it, or it has been
  // joined), and `closing` is set so no writer past the mutex will use
  // the fd again.
  std::lock_guard<std::mutex> lock(conn.write_mu);
  conn.stream.close();
}

void QueryServer::write_frame_(Connection& conn, const std::vector<std::uint8_t>& bytes) {
  bool failed = false;
  {
    std::lock_guard<std::mutex> lock(conn.write_mu);
    if (conn.closing.load(std::memory_order_acquire)) return;
    const Status s = conn.stream.write_frame(
        bytes, Deadline::after_ms(cfg_.write_deadline_ms), injector_.get());
    failed = !s.ok();
  }
  if (failed) shutdown_connection_(conn);
}

void QueryServer::reader_loop_(Connection* conn) {
  for (;;) {
    if (stopping_.load(std::memory_order_acquire) ||
        conn->closing.load(std::memory_order_acquire)) {
      break;
    }
    if (injector_ != nullptr &&
        injector_->next(FaultSite::kReadFrame).kind ==
            FaultAction::Kind::kDropConnection) {
      break;
    }
    Frame frame;
    // Reads park on poll indefinitely; stop()/close_connection_'s
    // shutdown wakes them with EOF.
    const Status s = conn->stream.read_frame(&frame, Deadline::never());
    if (!s.ok()) {
      if (s.code == StatusCode::kInvalidArgument) {
        // Malformed frame: the stream is desynchronized. Say why, then
        // hang up — never try to guess where the next frame starts.
        metrics_.bump(metrics_.invalid_frames);
        std::vector<std::uint8_t> err;
        encode_error(err, s);
        write_frame_(*conn, err);
      }
      break;
    }
    metrics_.bump(metrics_.frames_received);
    switch (frame.type) {
      case FrameType::kPing: {
        std::uint64_t nonce = 0;
        if (!decode_ping(frame.payload, &nonce).ok()) {
          metrics_.bump(metrics_.invalid_frames);
          break;
        }
        std::vector<std::uint8_t> pong;
        encode_ping(pong, nonce, /*pong=*/true);
        write_frame_(*conn, pong);
        break;
      }
      case FrameType::kStatsRequest: {
        std::vector<std::uint8_t> out;
        encode_stats_response(out, stats());
        write_frame_(*conn, out);
        break;
      }
      case FrameType::kQueryRequest:
        handle_query_(*conn, frame.payload);
        break;
      case FrameType::kUpdateRequest:
        // Applied right here on the reader thread: updates never enter
        // the admission queue, never occupy a query worker, and therefore
        // can never shed a query. Workers keep draining batches against
        // the pre-swap snapshot while the rebuild runs.
        handle_update_(*conn, frame.payload);
        break;
      default: {
        // Well-formed but client-illegal (a response type sent at us):
        // protocol violation, same treatment as malformed.
        metrics_.bump(metrics_.invalid_frames);
        std::vector<std::uint8_t> err;
        encode_error(err, Status::fail(StatusCode::kInvalidArgument,
                                       "unexpected frame type from client"));
        write_frame_(*conn, err);
        shutdown_connection_(*conn);
        break;
      }
    }
  }
  release_connection_(*conn);
}

void QueryServer::handle_query_(Connection& conn,
                                const std::vector<std::uint8_t>& payload) {
  QueryRequest req;
  const Status ds = decode_query_request(payload, &req);
  if (!ds.ok()) {
    metrics_.bump(metrics_.invalid_frames);
    std::vector<std::uint8_t> err;
    encode_error(err, ds);
    write_frame_(conn, err);
    shutdown_connection_(conn);
    return;
  }
  const std::uint64_t req_id = req.id;
  PendingRequest pr;
  pr.conn_id = conn.id;
  pr.deadline = Deadline::after_ms(req.deadline_ms > 0
                                       ? static_cast<double>(req.deadline_ms)
                                       : cfg_.admission.default_deadline_ms);
  pr.req = std::move(req);
  std::uint32_t retry_after_ms = 0;
  const Status admitted = admission_.offer(std::move(pr), &retry_after_ms);
  if (!admitted.ok()) {
    QueryResponse resp;
    resp.id = req_id;
    resp.status = admitted.code;
    resp.retry_after_ms = retry_after_ms;
    std::vector<std::uint8_t> out;
    encode_query_response(out, resp);
    write_frame_(conn, out);
  }
}

void QueryServer::handle_update_(Connection& conn,
                                 const std::vector<std::uint8_t>& payload) {
  UpdateRequest req;
  const Status ds = decode_update_request(payload, &req);
  if (!ds.ok()) {
    metrics_.bump(metrics_.invalid_frames);
    std::vector<std::uint8_t> err;
    encode_error(err, ds);
    write_frame_(conn, err);
    shutdown_connection_(conn);
    return;
  }

  UpdateResponse resp;
  resp.id = req.id;
  if (durable_ == nullptr) {
    // A static server has nothing to apply an update to; the frame is
    // well-formed, the deployment just doesn't support it.
    resp.status = StatusCode::kUnavailable;
    metrics_.bump(metrics_.updates_rejected);
  } else {
    // Endpoint range is checked before anything is applied, mirroring the
    // per-query OUT_OF_RANGE convention: an invalid batch leaves the
    // graph (and the epoch counter) untouched.
    bool in_range = true;
    for (const Edge& e : req.insert) {
      if (e.u >= n_ || e.v >= n_) in_range = false;
    }
    for (const Edge& e : req.remove) {
      if (e.u >= n_ || e.v >= n_) in_range = false;
    }
    if (!in_range) {
      resp.status = StatusCode::kOutOfRange;
      metrics_.bump(metrics_.updates_rejected);
    } else {
      // The coordinator owns dedup, WAL-before-publish and checkpoints,
      // and never throws. A duplicate replay is neither applied nor
      // rejected — it bumps updates_deduped inside.
      durable_->handle_update(req, &resp, injector_.get(), &metrics_);
      if (resp.status == StatusCode::kOk) {
        if ((resp.flags & kUpdateFlagDuplicate) == 0) {
          metrics_.bump(metrics_.updates_applied);
        }
      } else {
        metrics_.bump(metrics_.updates_rejected);
      }
    }
  }
  std::vector<std::uint8_t> out;
  encode_update_response(out, resp);
  write_frame_(conn, out);
}

void QueryServer::serve_request_(const PendingRequest& pr, std::size_t skip_scales) {
  QueryResponse resp;
  resp.id = pr.req.id;

  // Pin ONE snapshot for the whole batch. Every answer then comes from a
  // single epoch, and the snapshot's storage handles keep the graph (mmap
  // pages included) alive even if an update swaps — or the backing file
  // is unlinked — mid-batch. Null on the static path, where the engine
  // reference is owned by the caller for the server's whole lifetime.
  std::shared_ptr<const DynamicApproxShortestPaths::Snapshot> snap;
  const ApproxShortestPaths* engine = engine_;
  vid n = n_;
  if (durable_ != nullptr) {
    snap = durable_->engine().snapshot();
    engine = &snap->engine;
    n = snap->graph.num_vertices();
    resp.epoch = snap->epoch;
  }
  const std::vector<std::pair<vid, vid>>& pairs = pr.req.pairs;
  resp.answers.resize(pairs.size());

  // Out-of-range ids answer individually; only in-range pairs reach the
  // engine.
  std::vector<ApproxShortestPaths::QueryPair> valid;
  std::vector<std::size_t> slot;
  valid.reserve(pairs.size());
  slot.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].first >= n || pairs[i].second >= n) {
      resp.answers[i].status = StatusCode::kOutOfRange;
      resp.answers[i].estimate = kInfWeight;
      metrics_.bump(metrics_.queries_out_of_range);
    } else {
      valid.push_back(pairs[i]);
      slot.push_back(i);
    }
  }

  bool any_partial = false;
  bool any_degraded = false;
  if (!valid.empty()) {
    SsspWorkspacePool::Lease lease = pool_.checkout(pr.deadline);
    if (!lease) {
      // The workspace pool is the second admission surface: a checkout
      // that outlives the request's budget becomes a partial answer, not
      // an unbounded wait.
      metrics_.bump(metrics_.pool_checkout_timeouts);
      for (std::size_t i = 0; i < valid.size(); ++i) {
        resp.answers[slot[i]].status = StatusCode::kDeadlineExceeded;
        resp.answers[slot[i]].estimate = kInfWeight;
        metrics_.bump(metrics_.queries_deadline_exceeded);
      }
      any_partial = true;
    } else {
      ApproxShortestPaths::QueryOptions opts;
      opts.deadline = pr.deadline;
      opts.skip_scales = skip_scales;
      std::vector<ApproxShortestPaths::QueryResult> results;
      try {
        results = engine->query_batch(valid, *lease, opts);
      } catch (const std::exception&) {
        // The no-exceptions-across-the-boundary clause: convert, answer,
        // keep serving.
        for (std::size_t i = 0; i < valid.size(); ++i) {
          resp.answers[slot[i]].status = StatusCode::kInternal;
          resp.answers[slot[i]].estimate = kInfWeight;
        }
        results.clear();
      }
      for (std::size_t i = 0; i < results.size(); ++i) {
        QueryAnswer& a = resp.answers[slot[i]];
        a.estimate = results[i].estimate;
        a.scale = static_cast<std::uint32_t>(results[i].scale_used);
        if (results[i].deadline_exceeded) {
          a.status = StatusCode::kDeadlineExceeded;
          any_partial = true;
          metrics_.bump(metrics_.queries_deadline_exceeded);
        } else {
          a.status = StatusCode::kOk;
          metrics_.bump(metrics_.queries_ok);
        }
        if (results[i].degraded) {
          any_degraded = true;
          metrics_.bump(metrics_.queries_degraded);
        }
      }
    }
  }

  resp.status = any_partial ? StatusCode::kDeadlineExceeded : StatusCode::kOk;
  if (any_partial) resp.flags |= kRespFlagPartial;
  if (any_degraded) resp.flags |= kRespFlagDegraded;
  metrics_.bump(metrics_.batches_served);
  if (durable_ != nullptr && durable_->engine().note_batch_served(snap->epoch)) {
    metrics_.bump(metrics_.stale_batches);
  }

  if (const std::shared_ptr<Connection> conn = find_connection_(pr.conn_id)) {
    std::vector<std::uint8_t> out;
    encode_query_response(out, resp);
    write_frame_(*conn, out);
  }
  // A vanished connection drops the response on the floor — the work was
  // already deadline-bounded, and nobody is listening.
}

void QueryServer::worker_loop_() {
  std::vector<PendingRequest> batch;
  std::size_t skip_scales = 0;
  while (admission_.take_batch(&batch, &skip_scales)) {
    if (injector_ != nullptr) {
      const FaultAction act = injector_->next(FaultSite::kWorkerLoop);
      if (act.kind == FaultAction::Kind::kStall) {
        std::this_thread::sleep_for(std::chrono::microseconds(act.delay_us));
      }
    }
    Timer timer;
    std::size_t queries = 0;
    for (const PendingRequest& pr : batch) {
      queries += pr.req.pairs.size();
      serve_request_(pr, skip_scales);
    }
    admission_.finish_batch(queries, timer.millis());
  }
}

void QueryServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);

  // 1. Stop the intake: no new connections, wake the acceptor.
  listener_.shutdown_both();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();

  // 2. Wake readers parked in poll; they stop enqueueing and exit.
  //    Shutdown only — the fds are closed in step 4 after the readers
  //    are joined, so no reader can race the close.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& c : conns_) shutdown_connection_(*c);
  }

  // 3. Drain the admitted backlog, then release the workers.
  admission_.stop();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  // 4. Join readers and release every fd.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (const auto& c : conns) {
    if (c->reader.joinable()) c->reader.join();
    release_connection_(*c);
  }
}

StatsSnapshot QueryServer::stats() const {
  return metrics_.snapshot(injector_ ? injector_->injected() : 0);
}

std::size_t QueryServer::open_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::size_t open = 0;
  for (const auto& c : conns_) {
    if (!c->closing.load(std::memory_order_acquire)) ++open;
  }
  return open;
}

}  // namespace parsh::server
