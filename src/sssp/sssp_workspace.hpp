// Reusable traversal workspace for the SSSP family.
//
// Every traversal driver in src/sssp/ — hop-limited Bellman-Ford and
// the label-setting Dial sweep (st_sweep) that answers the Theorem 1.2
// query engine's per-scale searches and, untargeted, runs weighted BFS —
// shares one storage shape: a queue plus per-vertex distance state.
// Before this layer each call heap-allocated that state from scratch,
// which the two hot call loops pay for repeatedly: ApproxShortestPaths
// runs one sweep per distance scale per query, and the hopset build fans
// out one weighted BFS per large-cluster center. SsspWorkspace owns the
// state once, mirroring EstClusterWorkspace for the clustering side:
//
//  * a per-vertex dist array with a touched-vertex list:
//    the invariant "dist == kInfWeight except for vertices touched by the
//    last run" is restored lazily at the next run's start, so a run that
//    reaches few vertices (a distance-capped query sweep) costs O(touched)
//    workspace maintenance, not O(n);
//  * the round policy, the FrontierRelaxer and the per-round counters,
//    inherited from RoundScheduler (parallel/round_scheduler.hpp), which
//    EstClusterWorkspace shares;
//  * st_sweep's Dial queue: per-vertex list links and hop labels, a key
//    window of list heads (grown lazily, at most 65,536 keys) with its
//    bitmaps, and a heap for keys past the window. Allocated on the
//    sweep's first run only, so workspaces that only run hop-limited
//    sweeps do not carry it.
//
// Results of a run stay readable in place (dist_of / touched) until the
// next run on the same workspace begins. Not thread-safe across
// concurrent driver calls: one workspace per call chain. For parallel
// fan-outs (the hopset's per-center weighted BFS, batched queries) use
// SsspWorkspacePool, which keeps one workspace per pool worker.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/round_scheduler.hpp"
#include "util/deadline.hpp"

namespace parsh {

struct WeightedBfsResult;
struct HopLimitedStats;
struct StSweepStats;

namespace detail {

/// push_back that records capacity growth in the workspace's allocation
/// counter (relaxed atomic: growth can happen inside parallel regions).
template <typename T>
inline void push_counted(std::vector<T>& buf, T value,
                         std::atomic<std::uint64_t>& allocs) {
  if (buf.size() == buf.capacity()) {
    allocs.fetch_add(1, std::memory_order_relaxed);
  }
  buf.push_back(std::move(value));
}

/// st_sweep's per-vertex state: the links of the vertex's key list and
/// its hop label.
struct DialLink {
  vid next = kNoVertex;
  vid prev = kNoVertex;
  std::uint32_t hops = 0;
};

/// An st_sweep key waiting beyond the queue's window.
struct DialOverflow {
  std::size_t key = 0;
  vid v = kNoVertex;
};

}  // namespace detail

class SsspWorkspace : public RoundScheduler {
 public:
  SsspWorkspace();

  /// Heap-allocation events inside the workspace so far: the relaxer's
  /// prefix-scratch growth plus per-vertex array growth plus
  /// scratch-buffer capacity growth. Cumulative across runs; a warm run
  /// that fits every buffer leaves this unchanged — the guarantee the
  /// query-server tests pin.
  [[nodiscard]] std::uint64_t alloc_events() const {
    return relax_alloc_events() + grow_events_ +
           scratch_allocs_.load(std::memory_order_relaxed);
  }
  /// Times the per-vertex arrays had to grow (once per high-water n).
  [[nodiscard]] std::uint64_t array_grow_events() const { return grow_events_; }

  /// Distance settled by the last run (kInfWeight if the run did not
  /// reach v). Valid until the next run on this workspace begins.
  [[nodiscard]] weight_t dist_of(vid v) const {
    return dist_[v].load(std::memory_order_relaxed);
  }
  /// Vertices the last run reached, in no particular order. Iterating
  /// this instead of [0, n) is what keeps distance-capped sweeps (the
  /// query engine's out-of-scale searches) sublinear per call.
  [[nodiscard]] const std::vector<vid>& touched() const { return touched_; }

 private:
  friend WeightedBfsResult weighted_bfs(const Graph&, vid, weight_t,
                                        SsspWorkspace&);
  friend HopLimitedStats hop_limited_sssp(const Graph&, vid, std::uint64_t,
                                          weight_t, SsspWorkspace&,
                                          const Deadline&, vid);
  friend std::uint64_t hops_to_approx(const Graph&, vid, vid, weight_t, double,
                                      std::uint64_t);
  friend StSweepStats st_sweep(const Graph&, vid, vid, weight_t, SsspWorkspace&,
                               const Deadline&);

  /// Grow the per-vertex dist array to hold n vertices; geometric
  /// headroom, never shrunk. Newly (re)built entries restore the
  /// dist-infinity invariant.
  void ensure_vertices_(vid n);
  /// Start a run over n vertices: grow arrays, restore the dist-infinity
  /// invariant for the previous run's touched vertices, clear the touched
  /// list. O(touched_prev) when nothing grows.
  void begin_run_(vid n);

  // Per-vertex state (sized to the high-water n; only [0, n) touched).
  std::vector<std::atomic<weight_t>> dist_;
  // Per-run / per-round scratch independent of n.
  std::vector<vid> touched_;                     // vertices reached by last run
  std::vector<std::vector<vid>> newly_local_;    // per-worker BF winners
  std::vector<std::vector<vid>> touched_local_;  // per-worker first touches
  std::vector<std::size_t> offset_;              // winner-concat scan
  std::vector<vid> frontier_;                    // BF frontier
  std::vector<vid> improved_;                    // BF winners, settled lists
  std::vector<weight_t> frontier_dist_;          // per-round frontier snapshot (BF)
  // st_sweep's Dial queue (st_sweep.cpp), grown on its first use only.
  std::vector<detail::DialLink> dial_links_;     // per vertex
  std::vector<vid> key_head_;                    // per window slot: first vertex
  std::vector<std::uint64_t> key_bits_;          // nonempty slots
  std::vector<std::uint64_t> key_summary_;       // nonzero key_bits_ words
  std::vector<detail::DialOverflow> key_overflow_;  // keys past the window
  std::size_t vertex_capacity_ = 0;
  std::uint64_t grow_events_ = 0;
  std::atomic<std::uint64_t> scratch_allocs_{0};
};

/// One SsspWorkspace per pool worker, for parallel fan-outs whose
/// iterations each run a sequential traversal: the hopset's per-center
/// weighted BFS, Cohen-baseline landmark searches, batched queries.
/// Workspaces live in a deque so growing the pool never moves (immovable)
/// existing workspaces.
///
/// Two access modes, not to be mixed concurrently:
///  * worker-affine (`local()`): inside a parallel loop, each worker
///    indexes its own slot — no locking, the historical mode;
///  * serving (`checkout()`/Lease): external threads (the query server's
///    std::thread workers) borrow a workspace from a free list under a
///    mutex, with a Deadline bounding how long they are willing to wait.
///    A pool smaller than the worker count is a deliberate admission
///    surface: a checkout that cannot be satisfied within its budget
///    returns an empty Lease and the caller sheds the batch instead of
///    queueing unboundedly.
class SsspWorkspacePool {
 public:
  SsspWorkspacePool() { prepare(); }

  /// Ensure one workspace per current worker. Must be called from
  /// sequential context (the pool grows if set_num_workers raised the
  /// worker count since construction).
  void prepare() {
    const auto workers = static_cast<std::size_t>(num_workers());
    while (pool_.size() < workers) pool_.emplace_back();
  }

  /// The calling worker's workspace (race-free inside parallel regions
  /// provided prepare() ran since the last worker-count change).
  SsspWorkspace& local() { return pool_[static_cast<std::size_t>(worker_id())]; }

  [[nodiscard]] std::size_t size() const { return pool_.size(); }
  [[nodiscard]] SsspWorkspace& at(std::size_t i) { return pool_[i]; }

  /// Sum of alloc_events() across the pool.
  [[nodiscard]] std::uint64_t alloc_events() const {
    std::uint64_t total = 0;
    for (const SsspWorkspace& ws : pool_) total += ws.alloc_events();
    return total;
  }

  /// An exclusively borrowed workspace (serving mode). Returns it to the
  /// free list on destruction; an empty lease means the budget ran out.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        index_ = other.index_;
        other.pool_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    explicit operator bool() const { return pool_ != nullptr; }
    SsspWorkspace& operator*() { return pool_->at(index_); }
    SsspWorkspace* operator->() { return &pool_->at(index_); }

    void release() {
      if (pool_ != nullptr) pool_->checkin_(index_);
      pool_ = nullptr;
    }

   private:
    friend class SsspWorkspacePool;
    Lease(SsspWorkspacePool* pool, std::size_t index) : pool_(pool), index_(index) {}
    SsspWorkspacePool* pool_ = nullptr;
    std::size_t index_ = 0;
  };

  /// Size the pool for serving mode: exactly `count` workspaces on the
  /// free list. Call from one thread with no leases outstanding, before
  /// any checkout() — typically once at server start.
  void prepare_serving(std::size_t count) {
    if (count == 0) count = 1;
    while (pool_.size() < count) pool_.emplace_back();
    std::lock_guard<std::mutex> lock(mu_);
    free_.clear();
    for (std::size_t i = 0; i < count; ++i) free_.push_back(i);
  }

  /// Borrow a workspace, waiting until one is free or `deadline` expires
  /// (empty Lease). Wall-clock deadlines bound the wait exactly;
  /// check-based ones are re-polled every few milliseconds.
  [[nodiscard]] Lease checkout(const Deadline& deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (!free_.empty()) {
        const std::size_t index = free_.back();
        free_.pop_back();
        return Lease(this, index);
      }
      if (deadline.expired()) return Lease();
      free_cv_.wait_for(lock, std::chrono::milliseconds(
                                  deadline.remaining_ms_clamped(5)));
    }
  }

  /// Workspaces currently on the serving free list (diagnostics).
  [[nodiscard]] std::size_t available() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
  }

 private:
  void checkin_(std::size_t index) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      free_.push_back(index);
    }
    free_cv_.notify_one();
  }

  std::deque<SsspWorkspace> pool_;
  mutable std::mutex mu_;
  std::condition_variable free_cv_;
  std::vector<std::size_t> free_;  // serving-mode free list (indices)
};

}  // namespace parsh
