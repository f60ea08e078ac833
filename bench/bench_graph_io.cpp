// GRAPH-IO — the binary CSR (.pcsr) pipeline end to end: stream an RMAT
// straight to disk without materializing an edge list, memory-map it back
// (zero-copy, O(1) warm-up), and drive est_cluster + a hopset build off
// the mapped storage — flat and delta-varint compressed — so the on-disk
// format's three claims are recorded numbers, not prose:
//
//   1. load: mmap load time and the RSS it adds are O(1) in the graph
//      (pages fault in lazily as algorithms touch them), vs the text
//      edge-list reader which pays full parse time + full materialized
//      arrays up front (skipped above --text-cap edges).
//   2. compression: bytes/arc of the delta-varint adjacency vs the flat
//      4-byte targets, with est_cluster output bit-identical either way
//      (the identical column is computed, and compressed_rounds proves
//      the compressed decode path actually ran).
//   3. scale: est_cluster and build_hopset complete on the streamed
//      graph; times and PRAM counters land in BENCH_graph_io.json.
//
// Streamed files are cached under --cache-dir keyed by (n, m, seed), so
// repeat runs (and the CI lane's actions/cache) skip the streaming pass.
//
//   ./bench_graph_io --stream-edges 10000000 --reps 3
#include "bench_common.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace {

using namespace parsh;
using namespace parsh::bench;

/// VmRSS (current) or VmHWM (peak) of this process in KiB, from
/// /proc/self/status; 0 if unreadable (non-Linux).
std::uint64_t status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t key_len = std::char_traits<char>::length(key);
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      unsigned long long v = 0;
      if (std::sscanf(line + key_len + 1, "%llu", &v) == 1) kb = v;
      break;
    }
  }
  std::fclose(f);
  return kb;
}

std::uint64_t rss_kb() { return status_kb("VmRSS"); }
std::uint64_t peak_rss_kb() { return status_kb("VmHWM"); }

std::uint64_t file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// Best-of-reps timing; also returns the work/round counters of the best.
template <typename F>
Run best_of(int reps, F f) {
  Run best;
  best.seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    const Run run = timed(f);
    if (run.seconds < best.seconds) best = run;
  }
  return best;
}

bool same_clustering(const Clustering& a, const Clustering& b) {
  return a.num_clusters == b.num_clusters && a.cluster_of == b.cluster_of &&
         a.center == b.center && a.parent == b.parent &&
         a.dist_to_center == b.dist_to_center;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto m = static_cast<eid>(cli.get_int("stream-edges", 10000000));
  const vid n = static_cast<vid>(cli.get_int("n", static_cast<long long>(m / 8)));
  const std::uint64_t seed = cli.get_seed("seed", 1);
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const auto text_cap = static_cast<eid>(cli.get_int("text-cap", 20000000));
  const double beta = cli.get_double("beta", 0.4);
  const std::string cache_dir = cli.get("cache-dir", "graphs");
  const bool run_hopset = cli.get_bool("hopset", true);

  ::mkdir(cache_dir.c_str(), 0755);
  char stem[128];
  std::snprintf(stem, sizeof stem, "/rmat_n%u_m%" PRIu64 "_s%" PRIu64,
                n, static_cast<std::uint64_t>(m), seed);
  const std::string flat_path = cache_dir + stem + ".pcsr";
  const std::string compressed_path = cache_dir + stem + ".c.pcsr";
  const std::string text_path = cache_dir + stem + ".txt";

  JsonReport report("graph_io");
  Table table({"phase", "variant", "seconds", "rss-delta(MB)", "peak-rss(MB)",
               "file(MB)", "bytes/arc", "detail"});
  auto add_row = [&](const char* phase, const char* variant, double seconds,
                     std::uint64_t rss_delta, std::uint64_t peak,
                     std::uint64_t fbytes, double bytes_per_arc,
                     const std::string& detail) {
    table.row()
        .cell(phase)
        .cell(variant)
        .cell(seconds, 4)
        .cell(static_cast<double>(rss_delta) / 1024.0, 1)
        .cell(static_cast<double>(peak) / 1024.0, 1)
        .cell(static_cast<double>(fbytes) / (1024.0 * 1024.0), 1)
        .cell(bytes_per_arc, 3)
        .cell(detail);
    report.row()
        .field("bench", "graph_io")
        .field("phase", phase)
        .field("variant", variant)
        .field("n", static_cast<std::uint64_t>(n))
        .field("stream_edges", static_cast<std::uint64_t>(m))
        .field("seed", static_cast<std::uint64_t>(seed))
        .field("seconds", seconds)
        .field("rss_delta_kb", rss_delta)
        .field("peak_rss_kb", peak)
        .field("file_bytes", fbytes)
        .field("bytes_per_arc", bytes_per_arc)
        .field("detail", detail);
  };

  // --- Phase 1: stream the RMAT to disk (cached across runs) -------------
  for (const bool compress : {false, true}) {
    const std::string& path = compress ? compressed_path : flat_path;
    double secs = 0;
    if (!file_exists(path)) {
      secs = timed([&] { stream_rmat_pcsr(path, n, m, seed, 0.57, 0.19, 0.19,
                                          compress); }).seconds;
    }
    const PcsrInfo info = read_pcsr_info(path);
    add_row("stream", compress ? "compressed" : "flat", secs, 0, peak_rss_kb(),
            file_bytes(path),
            static_cast<double>(info.adjacency_bytes) /
                static_cast<double>(info.num_arcs ? info.num_arcs : 1),
            secs == 0 ? "cached" : "streamed");
  }

  // --- Phase 2: load timing — mmap zero-copy vs the text reader ----------
  Graph g;  // stays the mmap-backed flat graph for the algorithm phases
  {
    const std::uint64_t before = rss_kb();
    const Run load = best_of(reps, [&] { g = load_pcsr_file(flat_path); });
    const std::uint64_t after = rss_kb();
    char detail[96];
    std::snprintf(detail, sizeof detail, "n=%u arcs=%" PRIu64, g.num_vertices(),
                  static_cast<std::uint64_t>(g.num_arcs()));
    add_row("load", "pcsr-mmap", load.seconds, after - (before < after ? before : after),
            peak_rss_kb(), file_bytes(flat_path), 4.0, detail);
  }
  {
    Graph gz;
    const std::uint64_t before = rss_kb();
    const Run load = best_of(reps, [&] {
      PcsrLoadOptions opt;
      opt.verify_checksums = true;
      gz = load_pcsr_file(compressed_path, opt);
    });
    const std::uint64_t after = rss_kb();
    add_row("load", "pcsr-mmap-compressed+checksums", load.seconds,
            after - (before < after ? before : after), peak_rss_kb(),
            file_bytes(compressed_path),
            static_cast<double>(gz.adjacency_bytes()) /
                static_cast<double>(gz.num_arcs() ? gz.num_arcs() : 1),
            "per-section fnv1a verified");
  }
  if (g.num_arcs() / 2 <= text_cap) {
    if (!file_exists(text_path)) write_edge_list_file(text_path, g);
    Graph gt;
    const std::uint64_t before = rss_kb();
    const Run load = timed([&] { gt = read_edge_list_file(text_path); });
    const std::uint64_t after = rss_kb();
    const bool same = gt.num_vertices() == g.num_vertices() &&
                      gt.storage().offsets.size() == g.storage().offsets.size() &&
                      std::equal(gt.storage().offsets.begin(), gt.storage().offsets.end(),
                                 g.storage().offsets.begin()) &&
                      std::equal(gt.storage().targets.begin(), gt.storage().targets.end(),
                                 g.storage().targets.begin());
    add_row("load", "text-edge-list", load.seconds, after - before, peak_rss_kb(),
            file_bytes(text_path), 4.0,
            same ? "csr identical to mmap" : "MISMATCH vs mmap");
  } else {
    std::printf("(text reader comparison skipped: %" PRIu64
                " edges > --text-cap %" PRIu64 ")\n",
                static_cast<std::uint64_t>(g.num_arcs() / 2),
                static_cast<std::uint64_t>(text_cap));
  }

  // --- Phase 3: est_cluster on mapped storage, flat vs compressed --------
  Clustering flat_c;
  {
    EstClusterWorkspace ws;
    est_cluster(g, beta, seed, ws);  // warm
    const std::uint64_t before = rss_kb();
    const Run run = best_of(reps, [&] { flat_c = est_cluster(g, beta, seed, ws); });
    const std::uint64_t after = rss_kb();
    char detail[96];
    std::snprintf(detail, sizeof detail, "clusters=%u work=%" PRIu64,
                  flat_c.num_clusters, run.counters.work);
    add_row("est_cluster", "flat", run.seconds, after - before, peak_rss_kb(),
            0, 4.0, detail);
  }
  {
    const Graph gz = load_pcsr_file(compressed_path);
    EstClusterWorkspace ws;
    Clustering c = est_cluster(gz, beta, seed, ws);  // warm
    const Run run = best_of(reps, [&] { c = est_cluster(gz, beta, seed, ws); });
    char detail[96];
    std::snprintf(detail, sizeof detail, "identical=%d compressed_rounds=%" PRIu64,
                  same_clustering(c, flat_c) ? 1 : 0, ws.compressed_rounds());
    add_row("est_cluster", "compressed", run.seconds, 0, peak_rss_kb(), 0,
            static_cast<double>(gz.adjacency_bytes()) /
                static_cast<double>(gz.num_arcs() ? gz.num_arcs() : 1),
            detail);
    if (!same_clustering(c, flat_c)) {
      std::fprintf(stderr, "FATAL: compressed est_cluster diverged from flat\n");
      return 1;
    }
  }

  // --- Phase 4: hopset build on the mapped graph -------------------------
  if (run_hopset) {
    HopsetParams params;
    params.seed = seed;
    HopsetResult h;
    const std::uint64_t before = rss_kb();
    const Run run = timed([&] { h = build_hopset(g, params); });
    const std::uint64_t after = rss_kb();
    char detail[96];
    std::snprintf(detail, sizeof detail, "edges=%zu levels=%" PRIu64,
                  h.edges.size(), h.levels);
    add_row("hopset", "flat", run.seconds, after - before, peak_rss_kb(), 0,
            4.0, detail);
  }

  table.print();
  const std::string path = report.save();
  if (path.empty()) return 1;
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
