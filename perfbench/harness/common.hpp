// Shared plumbing of the benchmark workloads: options, the result record,
// the clock, and the open-loop load generator that drives a QueryServer
// over loopback TCP through the public protocol codecs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pure.hpp"
#include "server/protocol.hpp"

namespace perfbench {

/// Seconds on the steady clock every span and schedule uses.
double now_s();
void sleep_until_s(double t);

/// `--key value` pairs from the command line: the run's seed, seconds and
/// trace flag, its scratch paths, and the offered rates, update count and
/// worker count that run.py passes through from BENCHMARK.json.
class Options {
 public:
  Options(int argc, char** argv);
  [[nodiscard]] std::string str(const std::string& key) const;
  [[nodiscard]] double num(const std::string& key) const;
  [[nodiscard]] std::uint64_t count(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// One run's result: metrics by name, the correctness tally, and the
/// sample count behind each reported percentile.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  /// Everything the run measured. run.py reports the ones BENCHMARK.json
  /// lists and prints the rest without a bound.
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::uint64_t> samples;
  std::map<std::string, std::string> identity;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Record `n` operations of which `bad` failed.
  void ops(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }
  /// A correctness check: counts as one operation, fails the run if false.
  void check(bool ok, const std::string& what);
  /// Median and tail quantile of `v` (see windowed_quantile), refusing a
  /// tail the sample count of each window cannot support.
  void latency(const std::string& p50_name, const std::string& tail_name, double tail_q,
               const std::vector<double>& v, const std::string& unit,
               std::size_t windows = 1);
  [[nodiscard]] bool correct() const { return failures.empty(); }
  [[nodiscard]] std::string to_json() const;
};

/// Everything one open-loop phase observed.
struct OpenLoopRun {
  std::vector<RequestTiming> timing;  ///< per request, in send order
  std::vector<parsh::server::QueryResponse> responses;
  std::vector<bool> answered;
  std::size_t sent = 0;
  bool transport_error = false;

  /// A full answer: not shed, failed, partial or degraded.
  [[nodiscard]] bool full(std::size_t i) const;
  [[nodiscard]] std::size_t full_count() const;
  /// Due-to-verdict latency per sent request. With `misses_as_inf`, a
  /// request without a full answer counts as +inf: it missed every limit.
  [[nodiscard]] std::vector<double> latencies_ms(bool misses_as_inf) const;
  [[nodiscard]] std::vector<double> lateness_ms() const;
};

/// Open loop over one pipelined connection: request i of `stream` (from
/// `first`) is written when due at `rate_per_s`, regardless of answers
/// outstanding; a receiver thread matches responses by id. Sends stop
/// after `max_requests`, or once `min_duration_s` has passed and
/// `*keep_going` (if given) reads false. Waits for every answer up to
/// `drain_s` after the last send.
OpenLoopRun run_open_loop(std::uint16_t port, const std::vector<PairList>& stream,
                          std::size_t first, std::size_t max_requests, double rate_per_s,
                          std::uint32_t deadline_ms, double min_duration_s,
                          const std::atomic<bool>* keep_going, double drain_s);

/// End-to-end spans of an open-loop phase, from the generator's own
/// timestamps (recording them cost the timed part nothing): per request a
/// root "request" span from due to verdict, with children "gen.late" (due
/// to send), "client.encode_write" and "server.roundtrip".
void trace_requests(Tracer& tracer, const OpenLoopRun& run);

/// Spans around the traced replays' layer calls. It reads the clock itself
/// and times its own bookkeeping (clock reads and span records): that is
/// what tracing adds to the traced code, reported as trace.span_cost_us.
class SpanRecorder {
 public:
  explicit SpanRecorder(Tracer& tracer) : tracer_(tracer) {}
  std::int64_t begin(std::string name, std::uint64_t request, std::int64_t parent = -1);
  void end(std::int64_t id);
  /// Duration of a finished span.
  [[nodiscard]] double seconds(std::int64_t id) const;
  /// Time spent inside begin() and end() so far.
  [[nodiscard]] double cost_s() const { return cost_s_; }
  /// Spans begun so far.
  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  Tracer& tracer_;
  double cost_s_ = 0;
  std::size_t count_ = 0;
};

/// Server counters accumulated between two stats() snapshots.
parsh::server::StatsSnapshot stats_delta(const parsh::server::StatsSnapshot& a,
                                         const parsh::server::StatsSnapshot& b);

/// The server layer's failure and batching counters (per-layer metrics),
/// plus client-side retries.
void report_server_counters(Report& r, const parsh::server::StatsSnapshot& d,
                            std::uint64_t retries);

/// Round trips of QueryClient::ping over a fresh loopback connection, in
/// microseconds: the transport floor under every request. Also reports
/// server.ping_rtt_us.
std::vector<double> ping_rtt_us(std::uint16_t port, std::uint64_t seed, Report& r);

/// self.<span name>_ms: the median self time of each span name.
void report_self_times(Report& r, const Tracer& tracer);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Identity fields every run records: nproc, affinity, OpenMP threads,
/// compiler, build type.
void record_identity(Report& r);

/// A fresh directory under `parent` (created), removed by the caller.
std::string make_work_dir(const std::string& parent, const std::string& tag);
void remove_dir(const std::string& dir);

}  // namespace perfbench
