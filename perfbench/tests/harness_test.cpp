// Unit tests for the harness's pure parts (harness/pure.hpp): the rules a
// benchmark number depends on, checked without a server or a clock.
#include <cmath>
#include <cstdio>
#include <set>

#include "graph/generators.hpp"
#include "pure.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK(%s)\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                    \
    }                                                                \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void test_due_time_schedule() {
  const OpenLoopSchedule s{100.0, 50.0};
  CHECK(near(s.due_s(0), 100.0));
  CHECK(near(s.due_s(50), 101.0));
  CHECK(s.count_within(8.0) == 400);
  CHECK(s.count_within(0.01) == 1);  // request 0 is due at the start

  // Latency counts from the due time, not the send time: a request sent
  // 30 ms late and answered 5 ms later took 35 ms.
  RequestTiming t{10.000, 10.030, 10.031, 10.035};
  CHECK(near(t.latency_ms(), 35.0));
  CHECK(near(t.lateness_ms(), 30.0));
  RequestTiming early{10.0, 9.999, 9.9995, 10.002};
  CHECK(near(early.lateness_ms(), 0.0));
}

void test_lateness_accounting() {
  std::vector<double> flat(400, 0.2);
  CHECK(!lateness_grows(flat, 2.0));
  std::vector<double> growing;
  for (int i = 0; i < 400; ++i) growing.push_back(i * 0.05);  // 0 .. 20 ms
  CHECK(lateness_grows(growing, 2.0));
  std::vector<double> spike(400, 0.1);
  spike[200] = 50.0;  // one stall mid-run is not growth
  CHECK(!lateness_grows(spike, 2.0));
  CHECK(!lateness_grows({}, 2.0));
}

void test_percentile_rule() {
  CHECK(min_samples_for(0.99) == 1000);
  CHECK(min_samples_for(0.95) == 200);
  CHECK(min_samples_for(0.5) == 20);
  CHECK(!percentile_supported(999, 0.99));
  CHECK(percentile_supported(1000, 0.99));
  CHECK(!percentile_supported(199, 0.95));
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  CHECK(near(quantile(v, 0.99), 990.0));  // ten samples lie beyond it
  CHECK(near(quantile(v, 0.5), 500.0));
  CHECK(near(median({3.0, 1.0, 2.0}), 2.0));
  CHECK(near(quantile({7.0}, 0.99), 7.0));

  // Windowed: three slices of 1000; a stall that fills the second slice's
  // tail moves that slice's p99 only, and the median ignores it.
  std::vector<double> w;
  for (int s = 0; s < 3; ++s) {
    for (int i = 1; i <= 1000; ++i) w.push_back(s == 1 && i > 980 ? 5000.0 : i);
  }
  CHECK(near(quantile(std::vector<double>(w.begin() + 1000, w.begin() + 2000), 0.99), 5000.0));
  CHECK(near(windowed_quantile(w, 0.99, 3), 990.0));
  CHECK(near(windowed_quantile(w, 0.5, 3), 500.0));
  CHECK(near(windowed_quantile({1.0, 2.0, 3.0}, 0.5, 1), 2.0));
  // A remainder joins the last slice.
  CHECK(near(windowed_quantile({1.0, 1.0, 5.0, 5.0, 5.0}, 0.5, 2), 1.0));
}

void test_generator_determinism() {
  const auto a = make_request_stream(2500, 300, 2, 0, 1.1, 1, 42);
  const auto b = make_request_stream(2500, 300, 2, 0, 1.1, 1, 42);
  const auto c = make_request_stream(2500, 300, 2, 0, 1.1, 1, 43);
  CHECK(a == b);
  CHECK(a != c);
  const auto h1 = make_request_stream(2500, 300, 2, 64, 1.1, 1, 42);
  const auto h2 = make_request_stream(2500, 300, 2, 64, 1.1, 1, 42);
  const auto h3 = make_request_stream(2500, 300, 2, 64, 1.1, 1, 43);
  const auto h4 = make_request_stream(2500, 300, 2, 64, 1.1, 2, 42);
  CHECK(h1 == h2);
  CHECK(h1 != h3);
  std::set<vid> sources;
  for (const auto& req : h1) {
    CHECK(req.size() == 2);
    for (const auto& [s, t] : req) {
      sources.insert(s);
      CHECK(s < 2500 && t < 2500);
    }
  }
  CHECK(sources.size() <= 64);
  // The hot set depends on hot_set_seed alone: another stream seed draws
  // from the same 64 vertices, another hot-set seed from other ones.
  std::set<vid> same = sources, other = sources;
  for (const auto& req : h3) {
    for (const auto& [s, t] : req) same.insert(s);
  }
  for (const auto& req : h4) {
    for (const auto& [s, t] : req) other.insert(s);
  }
  CHECK(same.size() <= 64);
  CHECK(other.size() > 64);
  // Zipf sources share work inside a window; uniform ones almost never do.
  const double hot = source_repeat_frac(h1, 16);
  const double uni = source_repeat_frac(a, 16);
  CHECK(hot > 0.5);
  CHECK(uni < 0.05);
  CHECK(hot > 10 * uni);

  const ZipfSources z(1000, 8, 1.1, 7, 7);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 4000; ++i) ++hits[z.draw(i)];
  int distinct = 0, top = 0;
  for (int h : hits) {
    distinct += h > 0 ? 1 : 0;
    top = std::max(top, h);
  }
  CHECK(distinct == 8);
  CHECK(top > 4000 / 8);  // rank 1 is drawn more than its uniform share

  const Graph g = parsh::with_log_uniform_weights(parsh::make_grid(20, 20), 10000.0, 3);
  const Rng r = Rng(5).split(0xdb);
  const GraphDelta d1 = make_update_batch(g, r.split(1), 10000.0, 8);
  const GraphDelta d2 = make_update_batch(g, r.split(1), 10000.0, 8);
  CHECK(d1.insert.size() == d2.insert.size() && d1.remove.size() == d2.remove.size());
  for (std::size_t i = 0; i < d1.insert.size() && i < d2.insert.size(); ++i) {
    CHECK(d1.insert[i].u == d2.insert[i].u && d1.insert[i].v == d2.insert[i].v &&
          d1.insert[i].w == d2.insert[i].w);
  }
  CHECK(!d1.empty());
  // One band per batch: every inserted weight lies in a quarter of the
  // log range, so max/min stays under ratio^(1/4) (rounding aside).
  double lo = 1e300, hi = 0;
  for (const Edge& e : d1.insert) {
    lo = std::min(lo, static_cast<double>(e.w));
    hi = std::max(hi, static_cast<double>(e.w));
  }
  CHECK(d1.insert.empty() || hi / lo <= std::pow(10000.0, 0.25) + 1.0);
  // The batch applies cleanly (endpoints in range, positive weights).
  const auto applied = g.apply_delta(d1);
  CHECK(applied.graph.num_vertices() == g.num_vertices());
}

void test_request_prefix() {
  const std::vector<PairList> stream = {{{0, 1}, {2, 3}}, {{4, 5}, {6, 7}}, {{8, 9}, {1, 2}}};
  CHECK(request_prefix(stream, 3, 3).size() == 2);  // the prefix holds at least 3 pairs
  CHECK(request_prefix(stream, 3, 4).size() == 2);
  CHECK(request_prefix(stream, 3, 100).size() == 3);
  CHECK(request_prefix(stream, 1, 100).size() == 1);  // never past the requests sent
  CHECK(request_prefix(stream, 3, 0).empty());
  CHECK(request_prefix(stream, 3, 3)[1] == stream[1]);
}

void test_span_self_time() {
  Tracer t;
  const auto root = t.add("request", 1, -1, 0.0, 10.0);
  t.add("a", 1, root, 1.0, 3.0);
  t.add("b", 1, root, 2.0, 5.0);   // overlaps a: [1, 5] counts once
  t.add("c", 1, root, 8.0, 12.0);  // sticks out: only [8, 10] counts
  const auto inner = t.add("d", 1, root, 6.0, 7.0);
  t.add("e", 1, inner, 6.25, 6.75);
  const std::vector<double> self = span_self_seconds(t.spans());
  CHECK(near(self[0], 10.0 - 4.0 - 2.0 - 1.0));
  CHECK(near(self[1], 2.0));
  CHECK(near(self[4], 0.5));
  CHECK(near(self[5], 0.5));
  t.add("a", 2, -1, 20.0, 21.5);
  t.add("a", 3, -1, 30.0, 31.0);
  const auto by_name = median_self_seconds_by_name(t.spans());
  CHECK(near(by_name.at("a"), 1.5));  // median of 2.0, 1.5 and 1.0
  CHECK(near(by_name.at("request"), 3.0));
}

}  // namespace

int main() {
  test_due_time_schedule();
  test_lateness_accounting();
  test_percentile_rule();
  test_generator_determinism();
  test_request_prefix();
  test_span_self_time();
  if (failures == 0) std::printf("perfbench_harness_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
