#include "sssp/dynamic_approx.hpp"

#include <chrono>
#include <utility>

#include "hopset/weighted_hopset.hpp"

namespace parsh {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

DynamicApproxShortestPaths::DynamicApproxShortestPaths(Graph g, Params params,
                                                       std::uint64_t initial_epoch)
    : params_(params), n_(g.num_vertices()) {
  // Normalize once; rebuilds must see the exact parameter set epoch 0 was
  // built with or bit-identity across epochs is off the table.
  if (params_.hopset.zeta <= 0) params_.hopset.zeta = params_.epsilon / 2.0;
  WeightedHopset hs =
      build_weighted_hopset(g, params_.hopset, cluster_ws_, build_pool_);
  ApproxShortestPaths engine(n_, std::move(hs), params_);
  snap_ = std::make_shared<const Snapshot>(std::move(g), std::move(engine),
                                           initial_epoch);
  update_seq_.store(initial_epoch, std::memory_order_relaxed);
  published_epoch_.store(initial_epoch, std::memory_order_relaxed);
}

std::shared_ptr<const DynamicApproxShortestPaths::Snapshot>
DynamicApproxShortestPaths::snapshot() const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  return snap_;
}

DynamicApproxShortestPaths::ApplyResult DynamicApproxShortestPaths::apply(
    const GraphDelta& delta,
    const std::function<void(const ApplyResult&)>& pre_publish) {
  std::lock_guard<std::mutex> lk(update_mu_);
  const auto t0 = std::chrono::steady_clock::now();
  const std::shared_ptr<const Snapshot> old = snapshot();

  // Validate-then-accept: apply_delta throws on bad endpoints/weights
  // before the update is counted, so a rejected batch leaves no trace.
  DeltaResult dr = old->graph.apply_delta(delta);
  update_seq_.fetch_add(1, std::memory_order_relaxed);
  rebuild_in_progress_.store(true, std::memory_order_relaxed);

  ApplyResult res;
  res.inserted = dr.inserted;
  res.removed = dr.removed;
  res.reweighted = dr.reweighted;
  res.noops = dr.noops;

  WeightedHopset hs;
  if (force_full_.load(std::memory_order_relaxed)) {
    for (const HopsetScale& s : old->engine.hopset().scales) {
      res.hopset.total_clusters += std::max<vid>(s.top_clusters, 1);
    }
    hs = build_weighted_hopset(dr.graph, params_.hopset, cluster_ws_,
                               build_pool_);
    res.hopset.full_rebuild = true;
    res.hopset.total_scales = hs.scales.size();
    res.hopset.dirty_scales = hs.scales.size();
    res.hopset.dirty_clusters = res.hopset.total_clusters;
  } else {
    hs = rebuild_weighted_hopset(dr.graph, params_.hopset,
                                 old->engine.hopset(), dr.changes, cluster_ws_,
                                 build_pool_, &res.hopset);
  }
  auto snap = std::make_shared<const Snapshot>(
      std::move(dr.graph), ApproxShortestPaths(n_, std::move(hs), params_),
      old->epoch + 1);
  res.epoch = snap->epoch;
  // rebuild_ms is pinned here, before the write-ahead seam, so the value
  // the durability layer logs IS the value the caller (and any duplicate
  // retry answered from the log) sees — one canonical result per epoch.
  res.rebuild_ms = ms_since(t0);

  // The write-ahead seam: the snapshot is complete but unpublished and
  // uncounted. A throwing pre_publish (WAL append/fsync failure) unwinds
  // the accepted-update counter and discards the snapshot — no reader
  // ever saw the epoch, so the failed update leaves no trace.
  if (pre_publish) {
    try {
      pre_publish(res);
    } catch (...) {
      update_seq_.fetch_sub(1, std::memory_order_relaxed);
      rebuild_in_progress_.store(false, std::memory_order_relaxed);
      throw;
    }
  }

  // The last instant before readers can see the snapshot. Fault injection
  // stalls here to widen the swap window.
  if (swap_hook_) swap_hook_();

  {
    std::lock_guard<std::mutex> pub(snap_mu_);
    snap_ = snap;
  }
  published_epoch_.store(snap->epoch, std::memory_order_relaxed);
  rebuild_in_progress_.store(false, std::memory_order_relaxed);
  return res;
}

}  // namespace parsh
