// The benchmark's workloads. Each fills a Report with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) and the
// correctness tally; README.md in this directory says what each measures
// and why.
//
// Offered rates, the update count and thread counts come from the command
// line (BENCHMARK.json); every other size and count is a constant of the
// workload's own file.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Target accuracy of every approximate-SSSP engine the workloads build.
inline constexpr double kEpsilon = 0.25;
/// Spanner stretch parameter k, also behind the EST clusterings' beta.
inline constexpr double kSpannerK = 4;
/// Per-request deadline: two orders of magnitude above the service time,
/// so no answer is cut short at the offered rate.
inline constexpr std::uint32_t kDeadlineMs = 500;
/// A latency percentile is the median of the percentiles of this many
/// consecutive slices of the run (see windowed_quantile).
inline constexpr std::size_t kTailWindows = 2;

/// read-uniform (hot = false) and read-hot (hot = true): a static engine
/// over a weighted grid, served open-loop at a fixed offered rate, then a
/// rate search.
void run_read(const Options& o, bool hot, bool trace, Tracer& tracer, Report& r);

/// update-mix: a Durability-backed server taking a fixed count of update
/// batches closed-loop while readers query open-loop, then a simulated
/// kill and recovery.
void run_update_mix(const Options& o, bool trace, Tracer& tracer, Report& r);

/// build: offline construction of both spanners on a ~1M-edge RMAT and of
/// the approximate-SSSP engine on a weighted grid.
void run_build(const Options& o, bool trace, Tracer& tracer, Report& r);

}  // namespace perfbench
