// Admission control: the bounded queue between connection readers and
// query workers.
//
// Three jobs:
//   1. Coalesce arrivals into batches sized so one dispatch drains in
//      about `batch_budget_ms`, using a warm-start EWMA of ms/query
//      (seeded from the measured warm ms/query of
//      BENCH_thm12_approx_sssp.json via
//      AdmissionParams::warm_ms_per_query_hint).
//   2. Shed load instead of queueing it: a request is rejected with
//      RESOURCE_EXHAUSTED (plus a retry-after hint sized to the backlog)
//      when the queue is at depth capacity, or when the estimated drain
//      time of everything ahead of it already exceeds the request's own
//      deadline budget — admitting it would only manufacture a guaranteed
//      DEADLINE_EXCEEDED later, at full cost.
//   3. Pick the degradation tier: past `degrade_at_fraction` of queue
//      capacity, dispatched batches skip fine distance scales
//      (`degrade_skip_scales`), trading short-range precision for drain
//      rate before shedding starts.
//
// The kAdmission fault site injects phantom queue depth (kQueueSpike)
// into the shed estimate, which is how tests drive the shed path
// deterministically without racing real load.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "server/fault_injector.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "util/deadline.hpp"

namespace parsh::server {

struct AdmissionParams {
  /// Hard cap on queued requests; arrivals beyond it are shed outright.
  std::size_t max_queue_depth = 256;
  /// Deadline applied when a request carries deadline_ms == 0.
  double default_deadline_ms = 50.0;
  /// EWMA seed for ms per query. Set from the warm ms/query of the
  /// approx-SSSP benchmark so the very first shed decisions are sane.
  double warm_ms_per_query_hint = 0.5;
  /// Query workers draining the queue (divides the drain estimate).
  std::size_t workers = 1;
  /// Target wall time one dispatched batch should take.
  double batch_budget_ms = 5.0;
  /// Cap on queries coalesced into one dispatch.
  std::size_t max_batch = 64;
  /// Queue fullness (fraction of max_queue_depth) beyond which dispatches
  /// degrade. >= 1.0 disables degradation.
  double degrade_at_fraction = 0.5;
  /// Distance scales to skip when degraded.
  std::size_t degrade_skip_scales = 1;
};

/// A request admitted but not yet executed.
struct PendingRequest {
  std::uint64_t conn_id = 0;
  QueryRequest req;
  Deadline deadline;
};

class AdmissionQueue {
 public:
  AdmissionQueue(AdmissionParams params, ServerMetrics* metrics,
                 FaultInjector* injector);

  /// Admit or shed. On shed returns kResourceExhausted and fills
  /// *retry_after_ms with a backlog-sized backoff hint.
  [[nodiscard]] Status offer(PendingRequest&& r, std::uint32_t* retry_after_ms);

  /// Block until work or stop(). Pops a coalesced batch (up to the EWMA
  /// batch target) and the degradation tier chosen for it. Returns false
  /// only when stopped and drained.
  [[nodiscard]] bool take_batch(std::vector<PendingRequest>* out,
                                std::size_t* skip_scales);

  /// Report a finished dispatch: retires its in-flight queries and folds
  /// the measured per-query cost into the EWMA.
  void finish_batch(std::size_t queries, double elapsed_ms);

  /// Wake all waiters; take_batch drains what is queued, then returns false.
  void stop();

  [[nodiscard]] double ewma_ms_per_query() const;
  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] const AdmissionParams& params() const { return params_; }

 private:
  [[nodiscard]] std::size_t batch_target_locked() const;

  AdmissionParams params_;
  ServerMetrics* metrics_;
  FaultInjector* injector_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::vector<PendingRequest> queue_;  // FIFO; pop from front via head_
  std::size_t head_ = 0;
  std::size_t queued_queries_ = 0;    // query pairs sitting in queue_
  std::size_t in_flight_queries_ = 0; // popped but not finish_batch()ed
  double ewma_ms_ = 0;
  bool stopped_ = false;
};

}  // namespace parsh::server
