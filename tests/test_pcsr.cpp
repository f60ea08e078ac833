// Tests for the binary .pcsr format and the GraphStorage substrate it
// feeds: round trips (text -> binary -> mmap) must be bit-identical, a
// corrupted or truncated file must throw PcsrError instead of handing an
// algorithm garbage arrays (mirroring the strictness contract of the
// text readers' IoError), the delta-varint compressed adjacency must be
// observationally equivalent to the flat one across every traversal
// driver and thread count (with the compressed_rounds counters proving
// the compressed decode path actually ran), and the storage-handle
// sharing that makes Graph copies O(1) must actually share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/est_cluster.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/pcsr.hpp"
#include "parallel/parallel_for.hpp"
#include "sssp/bfs.hpp"
#include "sssp/hop_limited.hpp"
#include "sssp/sssp_workspace.hpp"
#include "thread_scope.hpp"

namespace parsh {
namespace {

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + "parsh_pcsr_" + name;
}

/// Storage-level bit equality: same offsets, targets, weights.
void expect_same_csr(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  ASSERT_EQ(a.weighted(), b.weighted());
  const GraphStorage& sa = a.storage();
  const GraphStorage& sb = b.storage();
  ASSERT_EQ(sa.offsets.size(), sb.offsets.size());
  EXPECT_TRUE(std::equal(sa.offsets.begin(), sa.offsets.end(), sb.offsets.begin()));
  ASSERT_EQ(sa.targets.size(), sb.targets.size());
  EXPECT_TRUE(std::equal(sa.targets.begin(), sa.targets.end(), sb.targets.begin()));
  ASSERT_EQ(sa.weights.size(), sb.weights.size());
  EXPECT_TRUE(std::equal(sa.weights.begin(), sa.weights.end(), sb.weights.begin()));
}

Graph test_graph_unweighted() {
  return ensure_connected(make_rmat(600, 2400, 11));
}

Graph test_graph_weighted() {
  return with_uniform_weights(test_graph_unweighted(), 1, 9, 3);
}

// ---- round trips -----------------------------------------------------------

TEST(Pcsr, UnweightedRoundTripBitIdentical) {
  const Graph g = test_graph_unweighted();
  const std::string path = tmp_path("rt_unweighted.pcsr");
  write_pcsr_file(path, g);
  const Graph loaded = load_pcsr_file(path);
  expect_same_csr(g, loaded);
  EXPECT_TRUE(loaded.validate());
  EXPECT_FALSE(loaded.weighted());
  std::remove(path.c_str());
}

TEST(Pcsr, WeightedRoundTripBitIdentical) {
  const Graph g = test_graph_weighted();
  const std::string path = tmp_path("rt_weighted.pcsr");
  write_pcsr_file(path, g);
  const Graph loaded = load_pcsr_file(path);
  expect_same_csr(g, loaded);
  EXPECT_TRUE(loaded.validate());
  EXPECT_TRUE(loaded.weighted());
  std::remove(path.c_str());
}

TEST(Pcsr, EdgelessGraphRoundTrips) {
  const Graph g = Graph::from_edges(7, {});
  const std::string path = tmp_path("rt_edgeless.pcsr");
  write_pcsr_file(path, g);
  const Graph loaded = load_pcsr_file(path);
  EXPECT_EQ(loaded.num_vertices(), 7u);
  EXPECT_EQ(loaded.num_arcs(), 0u);
  EXPECT_TRUE(loaded.validate());
  std::remove(path.c_str());
}

TEST(Pcsr, TextToBinaryToMmapPreservesTheGraph) {
  const Graph g = test_graph_weighted();
  const std::string text = tmp_path("chain.txt");
  const std::string bin = tmp_path("chain.pcsr");
  write_edge_list_file(text, g);
  write_pcsr_file(bin, read_edge_list_file(text));
  const Graph loaded = load_pcsr_file(bin);
  expect_same_csr(g, loaded);
  std::remove(text.c_str());
  std::remove(bin.c_str());
}

TEST(Pcsr, CompressedRoundTripDecompressesBitIdentical) {
  const Graph g = test_graph_weighted();
  const std::string path = tmp_path("rt_compressed.pcsr");
  PcsrWriteOptions opt;
  opt.compress = true;
  write_pcsr_file(path, g, opt);
  const Graph loaded = load_pcsr_file(path);
  EXPECT_TRUE(loaded.compressed());
  EXPECT_FALSE(loaded.has_flat_adjacency());
  EXPECT_TRUE(loaded.validate());
  expect_same_csr(g, loaded.decompress_adjacency());
  // Compression must actually shrink this adjacency (gap varints beat
  // 4-byte absolute targets on a 600-vertex graph).
  EXPECT_LT(loaded.adjacency_bytes(), g.adjacency_bytes());
  std::remove(path.c_str());
}

TEST(Pcsr, InfoReportsHeaderWithoutLoading) {
  const Graph g = test_graph_weighted();
  const std::string path = tmp_path("info.pcsr");
  PcsrWriteOptions opt;
  opt.compress = true;
  write_pcsr_file(path, g, opt);
  const PcsrInfo info = read_pcsr_info(path);
  EXPECT_EQ(info.version, 1u);
  EXPECT_TRUE(info.weighted);
  EXPECT_TRUE(info.compressed);
  EXPECT_EQ(info.num_vertices, g.num_vertices());
  EXPECT_EQ(info.num_arcs, g.num_arcs());
  EXPECT_GT(info.file_bytes, 0u);
  EXPECT_GT(info.adjacency_bytes, 0u);
  std::remove(path.c_str());
}

TEST(Pcsr, ChecksumVerificationAcceptsAnIntactFile) {
  const Graph g = test_graph_weighted();
  const std::string path = tmp_path("checksums.pcsr");
  write_pcsr_file(path, g);
  PcsrLoadOptions opt;
  opt.verify_checksums = true;
  expect_same_csr(g, load_pcsr_file(path, opt));
  std::remove(path.c_str());
}

// Algorithms must not care whether the arrays live on the heap or in a
// mapped file: identical outputs, not just isomorphic ones.
TEST(Pcsr, AlgorithmsBitIdenticalOnMmapStorage) {
  const Graph g = test_graph_weighted();
  const std::string path = tmp_path("algos.pcsr");
  write_pcsr_file(path, g);
  const Graph loaded = load_pcsr_file(path);

  const Clustering c1 = est_cluster(g, 0.4, 5);
  const Clustering c2 = est_cluster(loaded, 0.4, 5);
  EXPECT_EQ(c1.cluster_of, c2.cluster_of);
  EXPECT_EQ(c1.parent, c2.parent);
  EXPECT_EQ(c1.dist_to_center, c2.dist_to_center);

  const BfsResult b1 = bfs(g, 0);
  const BfsResult b2 = bfs(loaded, 0);
  EXPECT_EQ(b1.dist, b2.dist);
  EXPECT_EQ(b1.parent, b2.parent);

  const HopLimitedResult h1 = hop_limited_sssp(g, 0, g.num_vertices());
  const HopLimitedResult h2 = hop_limited_sssp(loaded, 0, g.num_vertices());
  EXPECT_EQ(h1.dist, h2.dist);
  std::remove(path.c_str());
}

// ---- corruption sweep ------------------------------------------------------
//
// Mirrors the strict-reader sweep in test_graph.cpp's GraphIo cases: every
// way a file can lie must surface as a typed error before any algorithm
// sees the arrays. Header offsets below match the format doc in pcsr.hpp.

class PcsrCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tmp_path("corrupt.pcsr");
    write_pcsr_file(path_, test_graph_weighted());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<std::uint8_t> slurp() {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  void dump(const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// Recompute the header checksum after a deliberate header edit, so the
  /// loader's structural validation (not the checksum) is what trips.
  static void fix_header_checksum(std::vector<std::uint8_t>& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < 184; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
    std::memcpy(bytes.data() + 184, &h, 8);
  }

  std::string path_;
};

TEST_F(PcsrCorruption, BadMagicRejected) {
  auto bytes = slurp();
  bytes[0] ^= 0xFF;
  dump(bytes);
  EXPECT_THROW(load_pcsr_file(path_), PcsrError);
}

TEST_F(PcsrCorruption, UnknownVersionRejected) {
  auto bytes = slurp();
  bytes[8] = 99;
  fix_header_checksum(bytes);
  dump(bytes);
  EXPECT_THROW(load_pcsr_file(path_), PcsrError);
}

TEST_F(PcsrCorruption, UnknownFlagBitsRejected) {
  auto bytes = slurp();
  bytes[12] |= 0x80;
  fix_header_checksum(bytes);
  dump(bytes);
  EXPECT_THROW(load_pcsr_file(path_), PcsrError);
}

TEST_F(PcsrCorruption, FlippedHeaderByteFailsTheHeaderChecksum) {
  auto bytes = slurp();
  bytes[17] ^= 0x01;  // low bytes of n, checksum NOT fixed up
  dump(bytes);
  EXPECT_THROW(load_pcsr_file(path_), PcsrError);
}

TEST_F(PcsrCorruption, LyingVertexCountRejected) {
  auto bytes = slurp();
  std::uint64_t n = 0;
  std::memcpy(&n, bytes.data() + 16, 8);
  n += 1;  // offsets section no longer holds n+1 entries
  std::memcpy(bytes.data() + 16, &n, 8);
  fix_header_checksum(bytes);
  dump(bytes);
  EXPECT_THROW(load_pcsr_file(path_), PcsrError);
}

TEST_F(PcsrCorruption, LyingArcCountRejected) {
  auto bytes = slurp();
  std::uint64_t arcs = 0;
  std::memcpy(&arcs, bytes.data() + 24, 8);
  arcs += 2;  // targets section no longer holds `arcs` entries
  std::memcpy(bytes.data() + 24, &arcs, 8);
  fix_header_checksum(bytes);
  dump(bytes);
  EXPECT_THROW(load_pcsr_file(path_), PcsrError);
}

TEST_F(PcsrCorruption, TruncatedFileRejected) {
  auto bytes = slurp();
  bytes.resize(bytes.size() / 2);  // the last sections now run past EOF
  dump(bytes);
  EXPECT_THROW(load_pcsr_file(path_), PcsrError);
}

TEST_F(PcsrCorruption, FileSmallerThanTheHeaderRejected) {
  dump(std::vector<std::uint8_t>(64, 0));
  EXPECT_THROW(load_pcsr_file(path_), PcsrError);
}

TEST_F(PcsrCorruption, OverlappingSectionsRejected) {
  auto bytes = slurp();
  // Pull the targets section's offset (table entry 1, at 40 + 24) back
  // onto the offsets section.
  std::uint64_t off = 4096;
  std::memcpy(bytes.data() + 40 + 24, &off, 8);
  fix_header_checksum(bytes);
  dump(bytes);
  EXPECT_THROW(load_pcsr_file(path_), PcsrError);
}

TEST_F(PcsrCorruption, UnalignedSectionRejected) {
  auto bytes = slurp();
  std::uint64_t off = 0;
  std::memcpy(&off, bytes.data() + 40 + 24, 8);
  off += 8;  // no longer page-aligned
  std::memcpy(bytes.data() + 40 + 24, &off, 8);
  fix_header_checksum(bytes);
  dump(bytes);
  EXPECT_THROW(load_pcsr_file(path_), PcsrError);
}

TEST_F(PcsrCorruption, PayloadBitFlipCaughtOnlyWithChecksumsOn) {
  auto bytes = slurp();
  bytes[4096 + 8] ^= 0x04;  // inside the offsets section payload
  // Keep the CSR structurally sane: offsets[1] changed, which the O(1)
  // structural checks cannot see — only the section checksum can.
  dump(bytes);
  PcsrLoadOptions verify;
  verify.verify_checksums = true;
  EXPECT_THROW(load_pcsr_file(path_, verify), PcsrError);
}

TEST_F(PcsrCorruption, ErrorsCarryTheFileOffset) {
  auto bytes = slurp();
  bytes[0] ^= 0xFF;
  dump(bytes);
  try {
    load_pcsr_file(path_);
    FAIL() << "expected PcsrError";
  } catch (const PcsrError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

// ---- compressed adjacency through the traversal drivers --------------------

TEST(PcsrCompressed, EstClusterBitIdenticalAtOneAndFourThreads) {
  const Graph flat = test_graph_unweighted();
  const Graph comp = flat.compress_adjacency();
  ASSERT_TRUE(comp.compressed());
  for (int threads : {1, 4}) {
    const auto [c_flat, c_comp] = at_threads(threads, [&] {
      EstClusterWorkspace wf;
      EstClusterWorkspace wc;
      // Route every round through the team stages so the parallel relax
      // rounds run the compressed decode, not just the sequential fast
      // path.
      for (EstClusterWorkspace* w : {&wf, &wc}) {
        w->set_round_policy({.rounds = RoundPolicy::Rounds::kAllParallel});
      }
      Clustering a = est_cluster(flat, 0.4, 7, wf);
      Clustering b = est_cluster(comp, 0.4, 7, wc);
      EXPECT_EQ(wf.compressed_rounds(), 0u);
      EXPECT_GT(wc.compressed_rounds(), 0u);
      return std::pair(std::move(a), std::move(b));
    });
    EXPECT_EQ(c_flat.cluster_of, c_comp.cluster_of) << threads << " threads";
    EXPECT_EQ(c_flat.parent, c_comp.parent) << threads << " threads";
    EXPECT_EQ(c_flat.dist_to_center, c_comp.dist_to_center) << threads << " threads";
  }
}

TEST(PcsrCompressed, ForcedPullDecodesCompressedChunks) {
  const Graph flat = test_graph_unweighted();
  const Graph comp = flat.compress_adjacency();
  EstClusterWorkspace wf;
  EstClusterWorkspace wc;
  for (EstClusterWorkspace* w : {&wf, &wc}) {
    w->set_round_policy({.rounds = RoundPolicy::Rounds::kAllParallel,
                         .direction = RoundPolicy::Direction::kPull});
  }
  const Clustering a = est_cluster(flat, 0.4, 7, wf);
  const Clustering b = est_cluster(comp, 0.4, 7, wc);
  EXPECT_GT(wc.pull_rounds(), 0u);
  EXPECT_GT(wc.compressed_rounds(), 0u);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_EQ(a.dist_to_center, b.dist_to_center);
}

TEST(PcsrCompressed, SsspDriversBitIdenticalAtOneAndFourThreads) {
  const Graph flat = test_graph_weighted();
  const Graph comp = flat.compress_adjacency();
  for (int threads : {1, 4}) {
    at_threads(threads, [&]() -> int {
      SsspWorkspace wf;
      SsspWorkspace wc;
      for (SsspWorkspace* w : {&wf, &wc}) {
        w->set_round_policy({.rounds = RoundPolicy::Rounds::kAllParallel});
      }

      const BfsResult b1 = bfs(flat, 0, kUnreachedHops, wf);
      const BfsResult b2 = bfs(comp, 0, kUnreachedHops, wc);
      EXPECT_EQ(b1.dist, b2.dist);
      EXPECT_EQ(b1.parent, b2.parent);
      EXPECT_EQ(wf.compressed_rounds(), 0u);
      EXPECT_GT(wc.compressed_rounds(), 0u);

      const std::uint64_t compressed_before = wc.compressed_rounds();
      const HopLimitedStats h1 =
          hop_limited_sssp(flat, 0, flat.num_vertices(), kInfWeight, wf);
      const HopLimitedStats h2 =
          hop_limited_sssp(comp, 0, comp.num_vertices(), kInfWeight, wc);
      EXPECT_GT(wc.compressed_rounds(), compressed_before);
      EXPECT_EQ(h1.rounds, h2.rounds);
      EXPECT_EQ(h1.relaxations, h2.relaxations);
      for (vid v = 0; v < flat.num_vertices(); ++v) {
        EXPECT_EQ(wf.dist_of(v), wc.dist_of(v)) << v;
      }
      return 0;
    });
  }
}

TEST(PcsrCompressed, CompressedFileDrivesAlgorithmsDirectly) {
  // End to end: a compressed .pcsr file, memory-mapped, runs est_cluster
  // without ever materializing flat targets.
  const Graph g = test_graph_unweighted();
  const std::string path = tmp_path("drive_compressed.pcsr");
  PcsrWriteOptions opt;
  opt.compress = true;
  write_pcsr_file(path, g, opt);
  const Graph loaded = load_pcsr_file(path);
  ASSERT_FALSE(loaded.has_flat_adjacency());
  EstClusterWorkspace ws;
  const Clustering a = est_cluster(g, 0.4, 9);
  const Clustering b = est_cluster(loaded, 0.4, 9, ws);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_GT(ws.compressed_rounds(), 0u);
  std::remove(path.c_str());
}

// ---- streamed generators ---------------------------------------------------

TEST(PcsrStream, StreamedRmatMatchesInMemoryBitIdentical) {
  const vid n = 500;
  const eid m = 3000;
  const std::string path = tmp_path("stream_rmat.pcsr");
  stream_rmat_pcsr(path, n, m, 7);
  expect_same_csr(make_rmat(n, m, 7), load_pcsr_file(path));
  std::remove(path.c_str());
}

TEST(PcsrStream, StreamedHeavyRmatMatchesInMemory) {
  const std::string path = tmp_path("stream_heavy.pcsr");
  stream_rmat_heavy_pcsr(path, 400, 2000, 13);
  expect_same_csr(make_rmat_heavy(400, 2000, 13), load_pcsr_file(path));
  std::remove(path.c_str());
}

TEST(PcsrStream, StreamedGridMatchesInMemory) {
  const std::string path = tmp_path("stream_grid.pcsr");
  stream_grid_pcsr(path, 17, 23);
  expect_same_csr(make_grid(17, 23), load_pcsr_file(path));
  std::remove(path.c_str());
}

TEST(PcsrStream, StreamedCompressedMatchesAfterDecompression) {
  const std::string path = tmp_path("stream_comp.pcsr");
  stream_rmat_pcsr(path, 500, 3000, 7, 0.57, 0.19, 0.19, /*compress=*/true);
  const Graph loaded = load_pcsr_file(path);
  ASSERT_TRUE(loaded.compressed());
  expect_same_csr(make_rmat(500, 3000, 7), loaded.decompress_adjacency());
  std::remove(path.c_str());
}

// ---- storage-handle sharing (O(1) derived graphs) --------------------------

TEST(GraphStorageSharing, CopiesShareEveryArray) {
  const Graph g = test_graph_weighted();
  const Graph h = g;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(h.storage().offsets.shares(g.storage().offsets));
  EXPECT_TRUE(h.storage().targets.shares(g.storage().targets));
  EXPECT_TRUE(h.storage().weights.shares(g.storage().weights));
}

TEST(GraphStorageSharing, MapWeightsSharesTheAdjacency) {
  const Graph g = test_graph_weighted();
  const Graph h = g.map_weights([](weight_t w) { return w * 2; });
  EXPECT_TRUE(h.storage().offsets.shares(g.storage().offsets));
  EXPECT_TRUE(h.storage().targets.shares(g.storage().targets));
  EXPECT_FALSE(h.storage().weights.shares(g.storage().weights));
  EXPECT_EQ(h.max_weight(), g.max_weight() * 2);
}

TEST(GraphStorageSharing, AsUnweightedSharesTheAdjacency) {
  const Graph g = test_graph_weighted();
  const Graph h = g.as_unweighted();
  EXPECT_TRUE(h.storage().offsets.shares(g.storage().offsets));
  EXPECT_TRUE(h.storage().targets.shares(g.storage().targets));
  EXPECT_FALSE(h.weighted());
  EXPECT_TRUE(h.storage().weights.empty());
}

TEST(GraphStorageSharing, MmapLoadSharesTheMappingAcrossCopies) {
  const Graph g = test_graph_weighted();
  const std::string path = tmp_path("share_mmap.pcsr");
  write_pcsr_file(path, g);
  Graph outer;
  {
    const Graph loaded = load_pcsr_file(path);
    outer = loaded.as_unweighted();  // keeps the mapping alive via the handle
  }
  // The mapped file must stay valid through the surviving handle even
  // after the original Graph (and the path) are gone.
  std::remove(path.c_str());
  EXPECT_EQ(outer.num_arcs(), g.num_arcs());
  std::size_t arcs_seen = 0;
  for (vid u = 0; u < outer.num_vertices(); ++u) {
    outer.for_arcs(u, 0, outer.degree(u), [](vid) {},
                   [&](eid, vid) { ++arcs_seen; });
  }
  EXPECT_EQ(arcs_seen, static_cast<std::size_t>(g.num_arcs()));
}

}  // namespace
}  // namespace parsh
