#include "common.hpp"

#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>

#include "server/client.hpp"
#include "server/transport.hpp"

#ifdef PARSH_HAVE_OPENMP
#include <omp.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace parsh::server;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_s(double t) {
  const double d = t - now_s();
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value pairs, got '" + k + "'");
    }
    kv_[k.substr(2)] = argv[++i];
  }
}

std::string Options::str(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw std::invalid_argument("missing option --" + key);
  return it->second;
}

double Options::num(const std::string& key) const { return std::stod(str(key)); }

std::uint64_t Options::count(const std::string& key) const {
  return std::stoull(str(key));
}

void Report::check(bool ok, const std::string& what) {
  ops(1, ok ? 0 : 1);
  if (!ok) failures.push_back(what);
}

void Report::latency(const std::string& p50_name, const std::string& tail_name,
                     double tail_q, const std::vector<double>& v, const std::string& unit,
                     std::size_t windows) {
  samples[p50_name] = v.size();
  samples[tail_name] = v.size();
  check(percentile_supported(v.size() / windows, tail_q),
        tail_name + " needs " + std::to_string(min_samples_for(tail_q)) + " samples in each of " +
            std::to_string(windows) + " windows, run had " + std::to_string(v.size()));
  set(p50_name, windowed_quantile(v, 0.5, windows), unit);
  set(tail_name, windowed_quantile(v, tail_q, windows), unit);
}

namespace {

/// `s` as a JSON string literal, quotes included.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out += '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Report::Metric>& metrics) {
  std::string o = "{";
  for (const auto& [name, m] : metrics) {
    if (o.size() > 1) o += ", ";
    o += json_string(name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
  }
  return o + "}";
}

}  // namespace

std::string Report::to_json() const {
  std::string o = "{\"correct\": ";
  o += correct() ? "true" : "false";
  o += ", \"attempted\": " + std::to_string(attempted);
  o += ", \"failed\": " + std::to_string(failed);
  o += ", \"metrics\": " + metrics_json(metrics);
  o += ", \"samples\": {";
  bool first = true;
  for (const auto& [name, n] : samples) {
    if (!first) o += ", ";
    first = false;
    o += json_string(name) + ": " + std::to_string(n);
  }
  o += "}, \"identity\": {";
  first = true;
  for (const auto& [k, v] : identity) {
    if (!first) o += ", ";
    first = false;
    o += json_string(k) + ": " + json_string(v);
  }
  o += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i) o += ", ";
    o += json_string(failures[i]);
  }
  o += "]}";
  return o;
}

bool OpenLoopRun::full(std::size_t i) const {
  if (!answered[i]) return false;
  const QueryResponse& r = responses[i];
  if (r.status != StatusCode::kOk) return false;
  if ((r.flags & (kRespFlagDegraded | kRespFlagPartial)) != 0) return false;
  for (const QueryAnswer& a : r.answers) {
    if (a.status != StatusCode::kOk) return false;
  }
  return true;
}

std::size_t OpenLoopRun::full_count() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < sent; ++i) n += full(i) ? 1 : 0;
  return n;
}

std::vector<double> OpenLoopRun::latencies_ms(bool misses_as_inf) const {
  std::vector<double> v;
  v.reserve(sent);
  for (std::size_t i = 0; i < sent; ++i) {
    v.push_back(!misses_as_inf || full(i) ? timing[i].latency_ms()
                                          : std::numeric_limits<double>::infinity());
  }
  return v;
}

std::vector<double> OpenLoopRun::lateness_ms() const {
  std::vector<double> v;
  v.reserve(sent);
  for (std::size_t i = 0; i < sent; ++i) v.push_back(timing[i].lateness_ms());
  return v;
}

OpenLoopRun run_open_loop(std::uint16_t port, const std::vector<PairList>& stream,
                          std::size_t first, std::size_t max_requests, double rate_per_s,
                          std::uint32_t deadline_ms, double min_duration_s,
                          const std::atomic<bool>* keep_going, double drain_s) {
  OpenLoopRun run;
  run.timing.resize(max_requests);
  run.responses.resize(max_requests);
  std::vector<char> answered(max_requests, 0);

  FdStream conn;
  if (!tcp_connect_loopback(port, &conn, parsh::Deadline::after_ms(2000)).ok()) {
    run.transport_error = true;
    run.answered.assign(max_requests, false);
    return run;
  }

  std::atomic<std::size_t> sent{0};
  std::atomic<bool> sending{true};
  std::atomic<double> last_send_s{0};
  std::atomic<bool> rx_error{false};
  std::thread rx([&] {
    std::size_t received = 0;
    while (true) {
      if (!sending.load(std::memory_order_acquire)) {
        if (received >= sent.load(std::memory_order_acquire)) break;
        if (now_s() > last_send_s.load(std::memory_order_acquire) + drain_s) break;
      }
      pollfd pfd{conn.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 10) <= 0) continue;
      Frame f;
      if (!conn.read_frame(&f, parsh::Deadline::after_ms(2000)).ok() ||
          f.type != FrameType::kQueryResponse) {
        rx_error.store(true);
        break;
      }
      QueryResponse resp;
      if (!decode_query_response(f.payload, &resp).ok() || resp.id == 0 ||
          resp.id > max_requests || answered[resp.id - 1] != 0) {
        rx_error.store(true);
        break;
      }
      const std::size_t idx = resp.id - 1;
      run.timing[idx].done_s = now_s();
      run.responses[idx] = std::move(resp);
      answered[idx] = 1;
      ++received;
    }
  });

  const OpenLoopSchedule sched{now_s() + 0.002, rate_per_s};
  std::vector<std::uint8_t> buf;
  for (std::size_t i = 0; i < max_requests; ++i) {
    const double due = sched.due_s(i);
    if (due - sched.start_s >= min_duration_s &&
        (keep_going == nullptr || !keep_going->load(std::memory_order_acquire))) {
      break;
    }
    if (rx_error.load()) break;
    sleep_until_s(due);
    QueryRequest req;
    req.id = i + 1;
    req.deadline_ms = deadline_ms;
    req.pairs = stream[(first + i) % stream.size()];
    const double t0 = now_s();
    buf.clear();
    encode_query_request(buf, req);
    run.timing[i].due_s = due;
    run.timing[i].sent_s = t0;
    if (!conn.write_frame(buf, parsh::Deadline::after_ms(2000)).ok()) {
      run.transport_error = true;
      break;
    }
    run.timing[i].written_s = now_s();
    last_send_s.store(run.timing[i].written_s, std::memory_order_release);
    sent.store(i + 1, std::memory_order_release);
  }
  sending.store(false, std::memory_order_release);
  rx.join();
  conn.close();
  run.sent = sent.load();
  // An unanswered request's verdict is the give-up time.
  const double gave_up = now_s();
  for (std::size_t i = 0; i < run.sent; ++i) {
    if (answered[i] == 0) run.timing[i].done_s = gave_up;
  }
  run.transport_error = run.transport_error || rx_error.load();
  run.answered.assign(answered.begin(), answered.end());
  return run;
}

void trace_requests(Tracer& tracer, const OpenLoopRun& run) {
  for (std::size_t i = 0; i < run.sent; ++i) {
    const RequestTiming& t = run.timing[i];
    const std::int64_t root = tracer.add("request", i + 1, -1, t.due_s, t.done_s);
    tracer.add("gen.late", i + 1, root, t.due_s, t.sent_s);
    tracer.add("client.encode_write", i + 1, root, t.sent_s, t.written_s);
    tracer.add("server.roundtrip", i + 1, root, t.written_s, t.done_s);
  }
}

std::int64_t SpanRecorder::begin(std::string name, std::uint64_t request,
                                 std::int64_t parent) {
  const double t = now_s();
  const std::int64_t id = tracer_.begin(std::move(name), request, parent, t);
  ++count_;
  cost_s_ += now_s() - t;
  return id;
}

void SpanRecorder::end(std::int64_t id) {
  const double t = now_s();
  tracer_.end(id, t);
  cost_s_ += now_s() - t;
}

double SpanRecorder::seconds(std::int64_t id) const {
  const Span& s = tracer_.spans()[static_cast<std::size_t>(id)];
  return s.end_s - s.start_s;
}

StatsSnapshot stats_delta(const StatsSnapshot& a, const StatsSnapshot& b) {
  StatsSnapshot d;
  d.requests_shed = b.requests_shed - a.requests_shed;
  d.queries_ok = b.queries_ok - a.queries_ok;
  d.queries_deadline_exceeded = b.queries_deadline_exceeded - a.queries_deadline_exceeded;
  d.queries_degraded = b.queries_degraded - a.queries_degraded;
  d.batches_served = b.batches_served - a.batches_served;
  return d;
}

void report_server_counters(Report& r, const StatsSnapshot& d, std::uint64_t retries) {
  r.set("server.batch_size_mean",
        d.batches_served
            ? static_cast<double>(d.queries_ok) / static_cast<double>(d.batches_served)
            : 0,
        "pairs");
  r.set("server.shed", static_cast<double>(d.requests_shed), "count");
  r.set("server.degraded", static_cast<double>(d.queries_degraded), "count");
  r.set("server.deadline_exceeded", static_cast<double>(d.queries_deadline_exceeded),
        "count");
  r.set("server.retries", static_cast<double>(retries), "count");
}

std::vector<double> ping_rtt_us(std::uint16_t port, std::uint64_t seed, Report& r) {
  QueryClient client;
  ClientConfig cfg;
  cfg.seed = seed;
  r.check(QueryClient::connect_tcp(port, cfg, &client).ok(), "ping client connects");
  std::vector<double> rtt;
  for (int i = 0; i < 300 && client.connected(); ++i) {
    const double t0 = now_s();
    if (client.ping().ok()) rtt.push_back((now_s() - t0) * 1e6);
  }
  client.close();
  r.check(!rtt.empty(), "pings answered");
  r.set("server.ping_rtt_us", median(rtt), "us");
  r.samples["server.ping_rtt_us"] = rtt.size();
  return rtt;
}

void report_self_times(Report& r, const Tracer& tracer) {
  for (const auto& [name, sec] : median_self_seconds_by_name(tracer.spans())) {
    r.set("self." + name + "_ms", sec * 1e3, "ms");
  }
}

double peak_rss_mb() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss does not:
  // Linux carries it across execve, so it would report the launching
  // Python process's size whenever that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void record_identity(Report& r) {
  r.identity["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string aff;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &set)) continue;
      if (!aff.empty()) aff += ',';
      aff += std::to_string(c);
    }
  }
  r.identity["cpu_affinity"] = aff;
#ifdef PARSH_HAVE_OPENMP
  r.identity["omp_threads"] = std::to_string(omp_get_max_threads());
#else
  r.identity["omp_threads"] = "1 (built without OpenMP)";
#endif
  r.identity["compiler"] = __VERSION__;
  r.identity["build_type"] = PERFBENCH_BUILD_TYPE;
}

std::string make_work_dir(const std::string& parent, const std::string& tag) {
  const std::string dir = parent + "/" + tag + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void remove_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
