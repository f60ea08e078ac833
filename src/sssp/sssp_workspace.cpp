#include "sssp/sssp_workspace.hpp"

#include <algorithm>

namespace parsh {

SsspWorkspace::SsspWorkspace()
    : newly_local_(static_cast<std::size_t>(num_workers())),
      touched_local_(static_cast<std::size_t>(num_workers())),
      offset_(static_cast<std::size_t>(num_workers())) {}

void SsspWorkspace::ensure_vertices_(vid n) {
  // The worker count may have been raised since construction; the
  // per-worker winner lists and scan scratch are indexed by worker_id()
  // and must cover it.
  const auto workers = static_cast<std::size_t>(num_workers());
  if (workers > newly_local_.size()) {
    newly_local_.resize(workers);
    touched_local_.resize(workers);
    offset_.resize(workers);
  }
  if (static_cast<std::size_t>(n) <= vertex_capacity_) return;
  ++grow_events_;
  // Geometric headroom: iterated callers whose graphs creep upwards pay
  // O(log n) reallocations, not one per new high-water mark.
  const std::size_t cap = std::max<std::size_t>(n, 2 * vertex_capacity_);
  // std::atomic is immovable, so the dist array is reconstructed at the
  // new size; the rebuild restores the all-infinite invariant the runs
  // rely on.
  dist_ = std::vector<std::atomic<weight_t>>(cap);
  parallel_for(0, cap, [&](std::size_t v) {
    dist_[v].store(kInfWeight, std::memory_order_relaxed);
  });
  // The previous touched list pointed into the discarded array; the fresh
  // one is already all-infinite.
  touched_.clear();
  vertex_capacity_ = cap;
}

void SsspWorkspace::begin_run_(vid n) {
  ensure_vertices_(n);
  relaxer().begin_run();  // fresh direction hysteresis per run
  // Restore the dist-infinity invariant for whatever the previous run
  // touched (ensure_vertices_ cleared the list if the arrays were
  // rebuilt, in which case they are already all-infinite).
  parallel_for_grain(0, touched_.size(), 512, [&](std::size_t i) {
    dist_[touched_[i]].store(kInfWeight, std::memory_order_relaxed);
  });
  touched_.clear();
}

}  // namespace parsh
