// The hardened approx-SSSP query server.
//
// Thread architecture:
//
//   acceptor ──► one reader thread per connection ──► AdmissionQueue
//                                                          │ coalesced batches
//                                                  query worker threads
//                                                          │ responses
//                     per-connection write mutex ◄─────────┘
//
// Robustness contract (the reason this layer exists):
//   * no exception crosses the server boundary — every failure is a typed
//     Status, every request gets exactly one response or a closed
//     connection;
//   * every blocking operation is deadline-bounded or stop()-wakeable;
//   * a malformed frame draws an ERROR frame and a close (the stream is
//     desynchronized; resynchronizing by guessing would be worse);
//   * out-of-range vertex ids are well-formed requests with OUT_OF_RANGE
//     answers, not protocol errors;
//   * overload sheds at admission (RESOURCE_EXHAUSTED + retry-after)
//     before it burns query time, degrades precision before it sheds, and
//     serves partial DEADLINE_EXCEEDED answers rather than late ones;
//   * with a FaultPlan armed, the injector's interrupt points (frame
//     reads/writes, worker dispatch, admission) fire deterministically per
//     seed — the recovery paths above are testable, not theoretical.
//
// Reader threads stay parked in the connection map until stop() joins
// them (a connection's thread is joined once, at shutdown); a closed
// connection's fd is released immediately under its write mutex, so fds
// do not linger. open_connections() is the leak probe tests assert zero.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "server/admission.hpp"
#include "server/checkpoint.hpp"
#include "server/fault_injector.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/transport.hpp"
#include "sssp/approx_query.hpp"
#include "sssp/dynamic_approx.hpp"

namespace parsh::server {

struct ServerConfig {
  AdmissionParams admission;
  /// Query worker threads draining the admission queue.
  std::size_t query_workers = 1;
  /// Workspaces on the serving free list (0 = one per query worker). A
  /// pool smaller than the worker count is a second admission surface:
  /// checkout waits are deadline-bounded and time out into
  /// DEADLINE_EXCEEDED responses.
  std::size_t pool_workspaces = 0;
  /// Budget for writing one response frame to a (possibly slow) peer.
  double write_deadline_ms = 2000.0;
  /// Arm the deterministic fault injector with this plan/seed.
  bool enable_faults = false;
  std::uint64_t fault_seed = 0;
  FaultPlan faults;
};

class QueryServer {
 public:
  /// Serve `engine` built over `g`. Both must outlive the server; the
  /// graph is only consulted for its vertex-id range. A static server:
  /// kUpdateRequest frames answer kUnavailable.
  QueryServer(const Graph& g, const ApproxShortestPaths& engine, ServerConfig cfg);

  /// Serve a durable dynamic engine (must outlive the server). Update
  /// frames apply on the connection's reader thread — they never occupy a
  /// query worker, so queries are never shed by updates — and every
  /// accepted update goes through the Durability coordinator: exactly-once
  /// dedup on (client_id, sequence), WAL append inside the pre-publish
  /// seam, threshold checkpoints. Every query batch pins one snapshot for
  /// its whole lifetime, so in-flight batches finish on the pre-swap
  /// graph. With faults enabled, the injector's kSwap site is wired to the
  /// engine's swap hook until the server is destroyed. recovered_updates
  /// in stats() reports what startup replay re-applied.
  QueryServer(Durability& durable, ServerConfig cfg);
  ~QueryServer();
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Spawn the query workers (idempotent). Must precede serve_stream.
  void start();

  /// Listen on loopback TCP (port 0 = ephemeral; see port()) and accept
  /// connections on a background thread.
  [[nodiscard]] Status listen_tcp(std::uint16_t port);
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Adopt an already-connected stream (the socketpair test path) and
  /// serve it on its own reader thread.
  void serve_stream(FdStream stream);

  /// Graceful shutdown: stop accepting, drain admitted requests, close
  /// every connection, join every thread. Idempotent.
  void stop();

  [[nodiscard]] StatsSnapshot stats() const;
  [[nodiscard]] std::size_t open_connections() const;
  [[nodiscard]] const ServerMetrics& metrics() const { return metrics_; }
  /// Null unless enable_faults.
  [[nodiscard]] FaultInjector* injector() { return injector_.get(); }
  [[nodiscard]] const AdmissionQueue& admission() const { return admission_; }

 private:
  struct Connection {
    std::uint64_t id = 0;
    FdStream stream;
    std::mutex write_mu;
    std::thread reader;
    std::atomic<bool> closing{false};
  };

  void acceptor_loop_();
  void reader_loop_(Connection* conn);
  void worker_loop_();
  /// Serialize + write under the connection's write mutex (write-site
  /// faults apply). A failed write closes the connection.
  void write_frame_(Connection& conn, const std::vector<std::uint8_t>& bytes);
  /// Any thread: mark closing, shutdown(2) under the write mutex (wakes a
  /// reader parked in poll), count the close. Leaves the fd open — closing
  /// it while the reader may still poll would hand the reader a recycled
  /// descriptor number.
  void shutdown_connection_(Connection& conn);
  /// Owner only (the reader at loop exit, or stop() after joining it):
  /// shutdown, then actually close(2) the fd under the write mutex.
  void release_connection_(Connection& conn);
  void handle_query_(Connection& conn, const std::vector<std::uint8_t>& payload);
  void handle_update_(Connection& conn, const std::vector<std::uint8_t>& payload);
  void serve_request_(const PendingRequest& pr, std::size_t skip_scales);
  [[nodiscard]] std::shared_ptr<Connection> find_connection_(std::uint64_t id);

  /// Exactly one of these is set. The static path reads `engine_`
  /// directly; the durable path takes one snapshot of its engine per
  /// query batch (the snapshot-lifetime rule: a batch's answers all come
  /// from the epoch it pinned, whose storage the shared_ptr keeps alive
  /// through any swap).
  const ApproxShortestPaths* engine_ = nullptr;
  Durability* durable_ = nullptr;
  vid n_;
  ServerConfig cfg_;
  ServerMetrics metrics_;
  std::unique_ptr<FaultInjector> injector_;
  AdmissionQueue admission_;
  SsspWorkspacePool pool_;

  TcpListener listener_;
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  mutable std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 1;

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace parsh::server
