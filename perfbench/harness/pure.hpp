// The benchmark harness's pure parts: statistics, open-loop scheduling,
// seeded input generators and span arithmetic. Nothing here touches a
// socket, a file or a clock it was not handed, so tests/harness_test.cpp
// can pin every rule the workloads rely on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "random/rng.hpp"

namespace perfbench {

using parsh::Edge;
using parsh::Graph;
using parsh::GraphDelta;
using parsh::Rng;
using parsh::vid;
using parsh::weight_t;

// ---- percentiles ------------------------------------------------------------

/// Samples a tail percentile needs beyond it before it is reported: a p99
/// from 200 samples is the second-largest value, not a p99.
inline constexpr std::size_t kSamplesBeyondTail = 10;

/// Smallest sample count at which quantile q (in (0, 1)) has at least
/// kSamplesBeyondTail samples above it.
inline std::size_t min_samples_for(double q) {
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(kSamplesBeyondTail) / (1.0 - q) - 1e-9));
}

inline bool percentile_supported(std::size_t n, double q) {
  return n >= min_samples_for(q);
}

/// Nearest-rank quantile of `v` (copied; v need not be sorted). Returns 0
/// on an empty input; callers gate on percentile_supported first.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Quantile q of each of `windows` consecutive equal slices of `v` (in
/// arrival order; a remainder joins the last slice), then the median of
/// those: a host stall that spoils one slice's tail cannot move the
/// result. Every slice must support q on its own (see
/// percentile_supported).
inline double windowed_quantile(const std::vector<double>& v, double q, std::size_t windows) {
  windows = std::max<std::size_t>(1, std::min(windows, v.size()));
  const std::size_t len = v.size() / windows;
  std::vector<double> per;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(w * len);
    const auto last = w + 1 == windows ? v.end() : first + static_cast<std::ptrdiff_t>(len);
    per.push_back(quantile(std::vector<double>(first, last), q));
  }
  return median(per);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---- open-loop schedule -----------------------------------------------------

/// Request i of an open loop at `rate_per_s` is due at start + i / rate,
/// whether or not earlier requests have been answered. Times are seconds
/// on the caller's clock.
struct OpenLoopSchedule {
  double start_s = 0;
  double rate_per_s = 1;

  [[nodiscard]] double due_s(std::uint64_t i) const {
    return start_s + static_cast<double>(i) / rate_per_s;
  }
  /// Requests due strictly before `start_s + duration_s`.
  [[nodiscard]] std::uint64_t count_within(double duration_s) const {
    return static_cast<std::uint64_t>(std::ceil(duration_s * rate_per_s - 1e-9));
  }
};

/// One open-loop request's timeline (seconds on the generator's clock).
struct RequestTiming {
  double due_s = 0;
  double sent_s = 0;     ///< encode started
  double written_s = 0;  ///< frame handed to the socket
  double done_s = 0;     ///< verdict decoded

  /// Latency as the user sees it: from when the request was due, so a
  /// stall also charges the requests queued behind it.
  [[nodiscard]] double latency_ms() const { return (done_s - due_s) * 1e3; }
  /// How late the generator sent it.
  [[nodiscard]] double lateness_ms() const {
    return std::max(0.0, (sent_s - due_s) * 1e3);
  }
};

/// The generator kept up when lateness at the end of a run is no worse
/// than at its start: compares the mean lateness of the last quarter of
/// requests (in send order) with the first quarter.
inline bool lateness_grows(const std::vector<double>& lateness_ms, double tolerance_ms) {
  const std::size_t q = lateness_ms.size() / 4;
  if (q == 0) return false;
  const std::vector<double> head(lateness_ms.begin(),
                                 lateness_ms.begin() + static_cast<std::ptrdiff_t>(q));
  const std::vector<double> tail(lateness_ms.end() - static_cast<std::ptrdiff_t>(q),
                                 lateness_ms.end());
  return mean(tail) - mean(head) > tolerance_ms;
}

// ---- input generators -------------------------------------------------------

/// Zipf(s) over `hot` ranks, each rank mapped to a vertex chosen by
/// `hot_set_seed`. The inverse-CDF table makes draw i a pure function of
/// (hot_set_seed, seed, i).
class ZipfSources {
 public:
  ZipfSources(vid n, vid hot, double s, std::uint64_t hot_set_seed, std::uint64_t seed)
      : rng_(Rng(seed).split(0x21bf)) {
    hot = std::max<vid>(1, std::min(hot, n));
    double total = 0;
    cdf_.reserve(hot);
    for (vid r = 0; r < hot; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    // Distinct vertices for the hot ranks: a partial Fisher-Yates shuffle
    // over [0, n) kept sparse in a map.
    std::map<vid, vid> swapped;
    const Rng pick = Rng(hot_set_seed).split(0x407);
    auto at = [&](vid i) {
      auto it = swapped.find(i);
      return it == swapped.end() ? i : it->second;
    };
    for (vid r = 0; r < hot; ++r) {
      const vid j = r + static_cast<vid>(pick.uniform_int(r, n - r));
      const vid vr = at(r), vj = at(j);
      swapped[r] = vj;
      swapped[j] = vr;
      vertex_.push_back(vj);
    }
  }

  [[nodiscard]] vid draw(std::uint64_t i) const {
    const double u = rng_.uniform(i);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const std::size_t r = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), vertex_.size() - 1);
    return vertex_[r];
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
  std::vector<vid> vertex_;
};

using PairList = std::vector<std::pair<vid, vid>>;

/// `requests` requests of `pairs_per_request` s-t pairs over [0, n).
/// Targets are uniform; sources are uniform, or Zipf over `hot` vertices
/// when hot > 0. Which vertices are hot depends on `hot_set_seed` only;
/// everything else on `seed`.
inline std::vector<PairList> make_request_stream(vid n, std::size_t requests,
                                                 std::size_t pairs_per_request, vid hot,
                                                 double zipf_s, std::uint64_t hot_set_seed,
                                                 std::uint64_t seed) {
  const Rng uni = Rng(seed).split(0x5eed);
  const ZipfSources zipf(n, hot == 0 ? 1 : hot, zipf_s, hot_set_seed, seed);
  std::vector<PairList> out(requests);
  std::uint64_t k = 0;
  for (auto& req : out) {
    req.reserve(pairs_per_request);
    for (std::size_t p = 0; p < pairs_per_request; ++p, ++k) {
      const vid s = hot > 0 ? zipf.draw(k) : static_cast<vid>(uni.uniform_int(2 * k, n));
      const vid t = static_cast<vid>(uni.uniform_int(2 * k + 1, n));
      req.emplace_back(s, t);
    }
  }
  return out;
}

/// The shortest prefix of the first `sent` requests of `stream` that holds
/// at least `pairs` pairs (all `sent` requests if they hold fewer).
inline std::vector<PairList> request_prefix(const std::vector<PairList>& stream,
                                            std::size_t sent, std::size_t pairs) {
  const std::size_t limit = std::min(sent, stream.size());
  std::size_t end = 0, held = 0;
  while (end < limit && held < pairs) held += stream[end++].size();
  return {stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(end)};
}

/// Share of pairs whose source already appeared in the same or one of the
/// previous `window - 1` requests: the work a per-source sweep could
/// share inside one admitted batch.
inline double source_repeat_frac(const std::vector<PairList>& stream, std::size_t window) {
  std::map<vid, std::size_t> last_seen;  // source -> newest request index
  std::size_t pairs = 0, repeats = 0;
  for (std::size_t r = 0; r < stream.size(); ++r) {
    for (const auto& [s, t] : stream[r]) {
      (void)t;
      ++pairs;
      const auto it = last_seen.find(s);
      if (it != last_seen.end() && r - it->second < window) ++repeats;
      last_seen[s] = r;
    }
  }
  return pairs == 0 ? 0 : static_cast<double>(repeats) / static_cast<double>(pairs);
}

/// One weight-coherent update batch against `current`, in the manner of
/// bench_dynamic: every weight comes from one of four log-uniform bands of
/// [1, ratio], so batches confined to heavy bands leave light distance
/// scales clean. About 70% inserts or reweights (random endpoints), the
/// rest removals of edges present in the band. Pure in (current, r).
inline GraphDelta make_update_batch(const Graph& current, const Rng& r, double ratio,
                                    std::size_t edges) {
  const vid n = current.num_vertices();
  const int band = static_cast<int>(r.uniform_int(997, 4));
  const double lo = std::pow(ratio, band / 4.0);
  const double hi = std::pow(ratio, (band + 1) / 4.0);
  std::vector<Edge> present;
  for (const Edge& e : current.undirected_edges()) {
    if (e.w >= lo && e.w <= hi) present.push_back(e);
  }
  GraphDelta d;
  for (std::size_t k = 0; k < edges; ++k) {
    if (r.uniform_int(3 * k, 100) < 70 || present.empty()) {
      const double x = static_cast<double>(r.uniform_int(3 * k + 3, 1u << 20)) /
                       static_cast<double>(1u << 20);
      const weight_t w = std::max<weight_t>(1, std::floor(lo * std::pow(hi / lo, x)));
      const vid u = static_cast<vid>(r.uniform_int(3 * k + 1, n));
      const vid v = static_cast<vid>(r.uniform_int(3 * k + 2, n));
      if (u != v) d.insert.push_back({u, v, w});
    } else {
      d.remove.push_back(present[r.uniform_int(3 * k + 1, present.size())]);
    }
  }
  return d;
}

// ---- spans ------------------------------------------------------------------

/// One traced interval. `parent` indexes the span that caused it (-1 for a
/// root); spans of one request share `request`.
struct Span {
  std::string name;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  double start_s = 0;
  double end_s = 0;
};

/// In-memory span log; written out only when the run ends.
class Tracer {
 public:
  std::int64_t begin(std::string name, std::uint64_t request, std::int64_t parent,
                     double now_s) {
    spans_.push_back({std::move(name), parent, request, now_s, now_s});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void end(std::int64_t id, double now_s) { spans_[static_cast<std::size_t>(id)].end_s = now_s; }
  /// A span whose interval was measured elsewhere.
  std::int64_t add(std::string name, std::uint64_t request, std::int64_t parent,
                   double start_s, double end_s) {
    spans_.push_back({std::move(name), parent, request, start_s, end_s});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (overlapping children count once; a child
/// sticking out of its parent counts only inside it).
inline std::vector<double> span_self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s, hi = spans[i].end_s;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

/// Median self time per span name, over that name's spans (one span per
/// request or batch, so this is the layer's self time per operation).
inline std::map<std::string, double> median_self_seconds_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = span_self_seconds(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name].push_back(self[i]);
  std::map<std::string, double> out;
  for (const auto& [name, v] : by_name) out[name] = median(v);
  return out;
}

}  // namespace perfbench
