// Epoch-swapped dynamic serving for the approximate-SSSP engine.
//
// DynamicApproxShortestPaths wraps ApproxShortestPaths behind an
// immutable-snapshot swap: queries run against whatever snapshot they
// grabbed, updates build a NEW snapshot off to the side and publish it
// atomically. Nothing a reader holds is ever mutated — the snapshot owns
// its Graph (storage handles pin mmap-backed files alive) and its engine,
// and shared_ptr keeps it breathing until the last in-flight batch drops
// it. That is the whole concurrency story:
//
//   * apply() runs on the caller's thread, serialized by an update mutex
//     (batches are ordered; there is one rebuild at a time).
//   * The swap is a shared_ptr store under a second, tiny mutex; readers
//     copy the pointer under the same mutex. The mutex release/acquire
//     pair is the happens-before edge that makes every byte of the new
//     snapshot (built before the store) visible to every reader that
//     observes the new pointer — no atomics on the snapshot itself, and
//     nothing for TSan to complain about.
//   * Counters are relaxed atomics: they feed metrics, not control flow.
//
// The rebuild is incremental: Graph::apply_delta reports the effective
// change set, and rebuild_weighted_hopset recomputes only the distance
// scales that can see a changed edge, reusing the rest of the previous
// hopset wholesale (O(1) handle copies). The result is bit-identical to a
// from-scratch build — tests/test_dynamic.cpp holds a randomized
// differential harness to that claim. `force_full_rebuild` bypasses the
// dirty-region path so the harness can compare organic vs forced runs.
//
// Staleness: a query batch served from epoch E while updates_started() is
// already past E saw a graph older than the newest accepted update. The
// server reports that per response (the epoch field) and in aggregate
// (stale_batches); it is the price of never blocking queries on rebuilds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "cluster/est_cluster.hpp"
#include "graph/delta.hpp"
#include "sssp/approx_query.hpp"
#include "sssp/sssp_workspace.hpp"

namespace parsh {

class DynamicApproxShortestPaths {
 public:
  using Params = ApproxShortestPaths::Params;

  /// One immutable serving epoch: the graph (its storage handles keep any
  /// mmap backing alive) and the engine built from it. Snapshots are only
  /// ever read once published.
  struct Snapshot {
    Graph graph;
    ApproxShortestPaths engine;
    std::uint64_t epoch = 0;

    Snapshot(Graph g, ApproxShortestPaths e, std::uint64_t ep)
        : graph(std::move(g)), engine(std::move(e)), epoch(ep) {}
  };

  /// What one apply() did (also the payload of the server's
  /// UpdateResponse).
  struct ApplyResult {
    std::uint64_t epoch = 0;      ///< epoch the new snapshot serves as
    double rebuild_ms = 0;        ///< delta merge + hopset rebuild + engine
    HopsetRebuildStats hopset;    ///< dirty/total scales and clusters
    std::uint64_t inserted = 0, removed = 0, reweighted = 0, noops = 0;
  };

  /// Build the first snapshot from g. Params are normalized here once
  /// (the zeta defaulting the static engine's ctor does) so every later
  /// rebuild sees the identical parameter set. `initial_epoch` seats the
  /// epoch counter: 0 for a fresh engine, the checkpoint's epoch when the
  /// durability layer rebuilds an engine from a recovered graph (hopset
  /// state is a pure function of (graph, params, seed) — the PR 9
  /// differential harness pins from-scratch == incremental — so replaying
  /// the WAL tail from here reproduces the uninterrupted snapshots
  /// bit-identically).
  DynamicApproxShortestPaths(Graph g, Params params, std::uint64_t initial_epoch = 0);

  /// The current published snapshot. Hold the returned pointer for the
  /// whole batch: every answer in a batch then comes from one epoch, and
  /// the backing storage outlives any concurrent swap or file unlink.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const;

  /// Apply one update batch: merge the delta, rebuild dirty scales (or
  /// everything under force_full_rebuild), publish the new snapshot.
  /// Serialized internally; queries are never blocked. Throws
  /// std::invalid_argument (bad endpoints / weights) without publishing.
  ApplyResult apply(const GraphDelta& delta) { return apply(delta, nullptr); }

  /// apply() with a write-ahead seam: `pre_publish` runs on the applying
  /// thread after the new snapshot is fully built but BEFORE anything is
  /// published or counted — the point where the durability layer appends
  /// and fsyncs the WAL record, so an acknowledged update is on disk
  /// before any reader can observe its epoch. The ApplyResult it receives
  /// is final (epoch, rebuild stats, effect counts). If it throws, the
  /// new snapshot is discarded, every counter is rolled back, and the
  /// exception propagates: a durability failure leaves the engine exactly
  /// as if the apply never happened.
  ApplyResult apply(const GraphDelta& delta,
                    const std::function<void(const ApplyResult&)>& pre_publish);

  /// Epoch of the published snapshot (0 until the first apply lands).
  [[nodiscard]] std::uint64_t epoch() const {
    return published_epoch_.load(std::memory_order_relaxed);
  }
  /// Updates accepted so far (>= epoch(); greater while a rebuild runs).
  [[nodiscard]] std::uint64_t updates_started() const {
    return update_seq_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool rebuild_in_progress() const {
    return rebuild_in_progress_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rebuilds() const {
    return rebuilds_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t full_rebuilds() const {
    return full_rebuilds_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double last_rebuild_ms() const {
    return last_rebuild_ms_.load(std::memory_order_relaxed);
  }

  /// Staleness accounting: the server calls this once per served batch
  /// with the epoch the batch's snapshot carried. A batch is stale when a
  /// newer update had already been accepted when it was served; returns
  /// that verdict so the caller can count it on its own side too.
  bool note_batch_served(std::uint64_t served_epoch) {
    batches_served_.fetch_add(1, std::memory_order_relaxed);
    if (update_seq_.load(std::memory_order_relaxed) > served_epoch) {
      stale_batches_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  [[nodiscard]] std::uint64_t batches_served() const {
    return batches_served_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stale_batches() const {
    return stale_batches_.load(std::memory_order_relaxed);
  }

  /// Test hook: make every apply() rebuild all scales from scratch. The
  /// differential harness requires forced and organic runs to agree.
  void set_force_full_rebuild(bool on) {
    force_full_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool force_full_rebuild() const {
    return force_full_.load(std::memory_order_relaxed);
  }

  /// Invoked on the apply() thread after the new snapshot is fully built,
  /// immediately before it is published — the fault-injection seam at the
  /// swap boundary (the server wires the FaultInjector's swap site here).
  void set_swap_hook(std::function<void()> hook) { swap_hook_ = std::move(hook); }

  [[nodiscard]] vid num_vertices() const { return n_; }
  [[nodiscard]] const Params& params() const { return params_; }

  /// The rebuild's warm clustering workspace, exposed so the determinism
  /// suite can set its RoundPolicy (set_round_policy).
  [[nodiscard]] EstClusterWorkspace& cluster_workspace() { return cluster_ws_; }

 private:
  Params params_;
  vid n_ = 0;

  mutable std::mutex snap_mu_;  ///< guards snap_ (publish + read)
  std::shared_ptr<const Snapshot> snap_;
  std::mutex update_mu_;  ///< serializes apply()

  /// Warm across batches: the incremental-rebuild half of the
  /// workspace-reuse story (queries reuse through the server's pool).
  EstClusterWorkspace cluster_ws_;
  SsspWorkspacePool build_pool_;

  std::function<void()> swap_hook_;

  std::atomic<std::uint64_t> update_seq_{0};
  std::atomic<std::uint64_t> published_epoch_{0};
  std::atomic<bool> rebuild_in_progress_{false};
  std::atomic<bool> force_full_{false};
  std::atomic<std::uint64_t> rebuilds_{0};
  std::atomic<std::uint64_t> full_rebuilds_{0};
  std::atomic<std::uint64_t> batches_served_{0};
  std::atomic<std::uint64_t> stale_batches_{0};
  std::atomic<double> last_rebuild_ms_{0};
};

}  // namespace parsh
