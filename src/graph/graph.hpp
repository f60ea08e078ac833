// Immutable CSR (compressed sparse row) graph.
//
// All algorithms in the library operate on undirected graphs stored as
// symmetric arc lists: an undirected edge {u,v} appears as arcs (u,v) and
// (v,u). Weights are optional; an unweighted graph reports weight 1 for
// every arc (the paper's unit-weight setting).
//
// Storage is pluggable (see graph/storage.hpp): the same Graph value can be
// backed by heap vectors (from_edges and friends) or by an mmap'ed .pcsr
// file (graph/pcsr.hpp), and its adjacency can be flat (`targets`, O(1)
// random access) or delta-varint compressed in kAdjChunk-neighbor chunks.
// Compressed adjacency has no random-access `target()`; consumers iterate
// through `for_arcs` / `scan_arcs`, whose [lo, hi) ranges line up with the
// FrontierRelaxer's stolen edge ranges so decompression parallelizes with
// the same work-stealing granularity as the flat path. Copying a Graph
// copies handles, not arrays — O(1) regardless of backing.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "graph/storage.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "util/types.hpp"

namespace parsh {

struct GraphDelta;
struct DeltaResult;

/// A weighted undirected edge. Builder input and spanner/hopset output.
struct Edge {
  vid u = 0;
  vid v = 0;
  weight_t w = 1.0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  Graph() { storage_.offsets = ArrayHandle<eid>::adopt(std::vector<eid>(1, 0)); }

  /// Build from an edge list over vertices [0, n).
  ///
  /// If `symmetrize`, each input edge {u,v} produces both arcs; otherwise
  /// the input is assumed to already contain both directions. Self loops
  /// are dropped. Parallel edges are merged keeping the minimum weight
  /// (the quotient-graph convention from Section 2 of the paper).
  /// The build is parallel end to end (symmetrize, sort, dedup, offsets)
  /// and schedule-independent: any worker count yields identical arrays.
  static Graph from_edges(vid n, std::vector<Edge> edges, bool symmetrize = true);

  /// Like from_edges but keeps parallel edges (used by tests).
  static Graph from_edges_keep_parallel(vid n, std::vector<Edge> edges,
                                        bool symmetrize = true);

  /// Wrap pre-built storage (the .pcsr loader and the streamed builder).
  /// The caller vouches for CSR invariants; use validate() to deep-check.
  static Graph from_storage(vid n, GraphStorage storage) {
    return Graph(n, std::move(storage));
  }

  [[nodiscard]] vid num_vertices() const { return n_; }
  /// Number of directed arcs (2x the undirected edge count).
  [[nodiscard]] eid num_arcs() const { return storage_.offsets.back(); }
  /// Number of undirected edges.
  [[nodiscard]] eid num_edges() const { return num_arcs() / 2; }
  [[nodiscard]] bool weighted() const { return !storage_.weights.empty(); }

  /// True when `target()` is available (flat adjacency). Compressed-only
  /// graphs must be walked through for_arcs / scan_arcs instead.
  [[nodiscard]] bool has_flat_adjacency() const {
    return !storage_.targets.empty() || num_arcs() == 0;
  }
  /// True when a compressed adjacency section is present.
  [[nodiscard]] bool compressed() const {
    return !storage_.chunk_start.empty();
  }

  [[nodiscard]] eid begin(vid v) const { return storage_.offsets[v]; }
  [[nodiscard]] eid end(vid v) const { return storage_.offsets[v + 1]; }
  [[nodiscard]] vid degree(vid v) const { return static_cast<vid>(end(v) - begin(v)); }
  [[nodiscard]] vid target(eid e) const {
    assert(has_flat_adjacency() && "target() needs flat adjacency; use for_arcs");
    return storage_.targets[e];
  }
  /// O(1) in both representations: weights are always stored flat, indexed
  /// by arc id, even when the targets are compressed.
  [[nodiscard]] weight_t weight(eid e) const {
    return storage_.weights.empty() ? weight_t{1} : storage_.weights[e];
  }

  /// Visit arcs [begin(u)+lo, begin(u)+hi) of vertex u, in adjacency
  /// order: fn(arc id, target). `prefetch(v_ahead)` is invoked with the
  /// target kPrefetchAhead positions further into the range (never past
  /// hi), letting callers prime their per-vertex arrays exactly as the
  /// flat-path loops did with target(e + kPrefetchAhead). On compressed
  /// adjacency the range is decoded chunkwise into a stack buffer; [lo,
  /// hi) is the FrontierRelaxer's stolen edge range, so decompression
  /// inherits the relaxer's work-stealing granularity.
  template <typename Prefetch, typename Fn>
  void for_arcs(vid u, std::size_t lo, std::size_t hi, Prefetch&& prefetch,
                Fn&& fn) const {
    const eid base = begin(u);
    if (has_flat_adjacency()) {
      const vid* t = storage_.targets.data();
      for (std::size_t j = lo; j < hi; ++j) {
        if (j + kPrefetchAhead < hi) prefetch(t[base + j + kPrefetchAhead]);
        fn(base + j, t[base + j]);
      }
      return;
    }
    vid buf[kAdjChunk];
    const std::size_t first_chunk = lo / kAdjChunk;
    const std::size_t last_chunk = (hi + kAdjChunk - 1) / kAdjChunk;
    for (std::size_t c = first_chunk; c < last_chunk; ++c) {
      const std::size_t count = decode_adjacency_chunk(u, c, buf);
      const std::size_t chunk_lo = c * kAdjChunk;
      const std::size_t jlo = (lo > chunk_lo ? lo - chunk_lo : 0);
      std::size_t jhi = hi - chunk_lo;
      if (jhi > count) jhi = count;
      for (std::size_t j = jlo; j < jhi; ++j) {
        if (j + kPrefetchAhead < jhi) prefetch(buf[j + kPrefetchAhead]);
        fn(base + chunk_lo + j, buf[j]);
      }
    }
  }

  /// Scan vertex u's full adjacency in order until `fn(arc id, target)`
  /// returns true; returns the number of arcs examined (including the
  /// stopping one). The early exit serves point lookups on the sorted
  /// list (an arc's weight or id, the symmetry check): they stop once the
  /// targets pass the one sought. On compressed adjacency, chunks past
  /// the stop are never decoded.
  template <typename Prefetch, typename Fn>
  std::size_t scan_arcs(vid u, Prefetch&& prefetch, Fn&& fn) const {
    const eid base = begin(u);
    const std::size_t deg = degree(u);
    if (has_flat_adjacency()) {
      const vid* t = storage_.targets.data();
      for (std::size_t j = 0; j < deg; ++j) {
        if (j + kPrefetchAhead < deg) prefetch(t[base + j + kPrefetchAhead]);
        if (fn(base + j, t[base + j])) return j + 1;
      }
      return deg;
    }
    vid buf[kAdjChunk];
    const std::size_t chunks = (deg + kAdjChunk - 1) / kAdjChunk;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t count = decode_adjacency_chunk(u, c, buf);
      const std::size_t chunk_lo = c * kAdjChunk;
      for (std::size_t j = 0; j < count; ++j) {
        if (j + kPrefetchAhead < count) prefetch(buf[j + kPrefetchAhead]);
        if (fn(base + chunk_lo + j, buf[j])) return chunk_lo + j + 1;
      }
    }
    return deg;
  }

  /// A copy whose adjacency is delta-varint compressed (flat targets
  /// dropped); offsets and weights are shared, not copied. Requires flat
  /// adjacency. Outputs of every for_arcs/scan_arcs consumer are
  /// bit-identical to the flat graph by the argmin contracts.
  [[nodiscard]] Graph compress_adjacency() const;

  /// Inverse of compress_adjacency: decode everything back to a flat
  /// targets array (offsets and weights again shared).
  [[nodiscard]] Graph decompress_adjacency() const;

  /// Bytes spent on the adjacency representation (targets or varint
  /// stream + chunk index), for bytes-per-arc reporting.
  [[nodiscard]] std::size_t adjacency_bytes() const {
    if (compressed()) {
      return storage_.stream.size() +
             storage_.chunk_bytes.size() * sizeof(std::uint64_t);
    }
    return storage_.targets.size() * sizeof(vid);
  }

  /// The backing arrays (the .pcsr writer streams straight from these).
  [[nodiscard]] const GraphStorage& storage() const { return storage_; }

  /// Min / max edge weight (1/1 for unweighted graphs; 0/0 if no edges).
  [[nodiscard]] weight_t min_weight() const;
  [[nodiscard]] weight_t max_weight() const;

  /// All undirected edges, each reported once with u < v.
  [[nodiscard]] std::vector<Edge> undirected_edges() const;

  /// A copy of this graph with the given extra undirected edges added
  /// (used to form G union E' when querying hopsets): the graph
  /// from_edges builds from undirected_edges() plus `extra`, weighted iff
  /// this graph is or some extra weight is not 1. Linear work plus a sort
  /// of the extra arcs: each row is a merge of this graph's sorted row
  /// with its sorted extra arcs.
  [[nodiscard]] Graph with_extra_edges(const std::vector<Edge>& extra) const;

  /// A copy without the edges heavier than `cap` (a distance scale's
  /// Klein-Subramanian prune): the graph from_edges builds from the
  /// undirected_edges() of weight <= cap. Linear work: each row is a
  /// filtered copy of this graph's row.
  [[nodiscard]] Graph prune_heavier_than(weight_t cap) const;

  /// Apply a batch of edge inserts/removes/reweights, producing a new
  /// graph (this one is untouched — snapshots keep serving). Storage
  /// handles the batch does not invalidate are shared, not copied: an
  /// all-no-op delta is O(1), a reweight-only delta materializes just a
  /// new weights array, and a structural delta rebuilds the adjacency
  /// with a parallel per-vertex merge. See graph/delta.hpp for the full
  /// semantics and the change-set the result carries.
  [[nodiscard]] DeltaResult apply_delta(const GraphDelta& delta) const;

  /// A copy with all weights replaced by f(w) (weight rounding). Only the
  /// weights array is materialized; offsets and targets are shared.
  template <typename F>
  [[nodiscard]] Graph map_weights(F f) const {
    Graph g = *this;
    const eid m = num_arcs();
    std::vector<weight_t> w(m);
    parallel_for(0, static_cast<std::size_t>(m),
                 [&](std::size_t e) { w[e] = f(weight(static_cast<eid>(e))); });
    g.storage_.weights = ArrayHandle<weight_t>::adopt(std::move(w));
    return g;
  }

  /// Drop the weight array, making the graph unit-weight. O(1): every
  /// other array is shared with this graph.
  [[nodiscard]] Graph as_unweighted() const {
    Graph g = *this;
    g.storage_.weights.reset();
    return g;
  }

  /// Structural invariants: sorted adjacency, symmetric arcs, positive
  /// weights, no self loops. Used by tests and debug assertions. Works on
  /// both flat and compressed adjacency (everything goes through
  /// for_arcs/scan_arcs).
  [[nodiscard]] bool validate() const;

 private:
  /// Decode one kAdjChunk-neighbor chunk of u's compressed adjacency into
  /// `out` (capacity kAdjChunk); `chunk` is the chunk index local to u.
  /// Returns the neighbor count. Throws std::runtime_error on a corrupt
  /// stream (truncated varint, out-of-range target) — bounds-checked in
  /// the same strict spirit as the text readers' IoError.
  std::size_t decode_adjacency_chunk(vid u, std::size_t chunk, vid* out) const;

  Graph(vid n, GraphStorage storage) : n_(n), storage_(std::move(storage)) {}

  vid n_ = 0;
  GraphStorage storage_;

  friend Graph build_csr(vid n, std::vector<Edge>&& arcs, bool dedup, bool any_weighted);
};

}  // namespace parsh
