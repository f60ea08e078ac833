#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "graph/row_builder.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "parallel/sort.hpp"

namespace parsh {

namespace {

/// Directed arc used during construction.
struct Arc {
  vid u, v;
  weight_t w;
};

/// (u, v, w) order: rows, then targets, then the lightest parallel arc.
constexpr auto arc_less = [](const Arc& a, const Arc& b) {
  if (a.u != b.u) return a.u < b.u;
  if (a.v != b.v) return a.v < b.v;
  return a.w < b.w;
};

[[noreturn]] void corrupt_adjacency(vid u, std::size_t chunk,
                                    const char* what) {
  throw std::runtime_error("corrupt compressed adjacency at vertex " +
                           std::to_string(u) + " chunk " +
                           std::to_string(chunk) + ": " + what);
}

}  // namespace

Graph build_csr(vid n, std::vector<Edge>&& arcs_in, bool dedup, bool any_weighted) {
  // `arcs_in` holds directed arcs (u=src stored in Edge::u).
  std::vector<Arc> arcs(arcs_in.size());
  parallel_for(0, arcs_in.size(), [&](std::size_t i) {
    arcs[i] = {arcs_in[i].u, arcs_in[i].v, arcs_in[i].w};
  });
  arcs_in.clear();
  parallel_sort(arcs, arc_less);
  if (dedup) {
    // Keep the first arc of every (u,v) group: sorted by weight, so the
    // survivor carries the minimum weight — same as std::unique, but as a
    // parallel pack.
    auto kept = pack_values<Arc>(
        arcs.size(),
        [&](std::size_t i) {
          return i == 0 || arcs[i].u != arcs[i - 1].u ||
                 arcs[i].v != arcs[i - 1].v;
        },
        [&](std::size_t i) { return arcs[i]; });
    arcs = std::move(kept);
  }
  const std::size_t m = arcs.size();

  // Offsets by boundary detection: offsets[v] is the index of the first
  // arc with source >= v. Each entry is written exactly once, with a value
  // that depends only on the sorted arc array — identical at any worker
  // count.
  std::vector<eid> offsets(static_cast<std::size_t>(n) + 1, 0);
  if (m > 0) {
    parallel_for(0, m, [&](std::size_t i) {
      const vid u = arcs[i].u;
      if (i == 0) {
        for (vid v = 1; v <= u; ++v) offsets[v] = 0;
      } else if (arcs[i - 1].u != u) {
        for (vid v = arcs[i - 1].u + 1; v <= u; ++v) offsets[v] = i;
      }
      if (i + 1 == m) {
        for (vid v = u; v < n; ++v) offsets[static_cast<std::size_t>(v) + 1] = m;
      }
    });
  }

  std::vector<vid> targets(m);
  std::vector<weight_t> weights(any_weighted ? m : 0);
  parallel_for(0, m, [&](std::size_t i) {
    targets[i] = arcs[i].v;
    if (any_weighted) weights[i] = arcs[i].w;
  });

  Graph g;
  g.n_ = n;
  g.storage_.offsets = ArrayHandle<eid>::adopt(std::move(offsets));
  g.storage_.targets = ArrayHandle<vid>::adopt(std::move(targets));
  if (any_weighted)
    g.storage_.weights = ArrayHandle<weight_t>::adopt(std::move(weights));
  return g;
}

namespace {

std::vector<Edge> make_arcs(std::vector<Edge>& edges, bool symmetrize, bool* any_weighted) {
  const std::size_t m = edges.size();
  *any_weighted =
      parallel_count(m, [&](std::size_t i) { return edges[i].w != weight_t{1}; }) > 0;
  // Drop self loops with a parallel pack, then scatter each survivor (and
  // its reverse when symmetrizing) to a fixed slot.
  auto keep = pack_indices(m, [&](std::size_t i) { return edges[i].u != edges[i].v; });
  const std::size_t k = keep.size();
  std::vector<Edge> arcs(symmetrize ? 2 * k : k);
  parallel_for(0, k, [&](std::size_t i) {
    const Edge e = edges[keep[i]];
    if (symmetrize) {
      arcs[2 * i] = e;
      arcs[2 * i + 1] = {e.v, e.u, e.w};
    } else {
      arcs[i] = e;
    }
  });
  return arcs;
}

}  // namespace

Graph Graph::from_edges(vid n, std::vector<Edge> edges, bool symmetrize) {
  bool any_weighted = false;
  auto arcs = make_arcs(edges, symmetrize, &any_weighted);
  return build_csr(n, std::move(arcs), /*dedup=*/true, any_weighted);
}

Graph Graph::from_edges_keep_parallel(vid n, std::vector<Edge> edges, bool symmetrize) {
  bool any_weighted = false;
  auto arcs = make_arcs(edges, symmetrize, &any_weighted);
  return build_csr(n, std::move(arcs), /*dedup=*/false, any_weighted);
}

weight_t Graph::min_weight() const {
  if (num_arcs() == 0) return 0;
  if (!weighted()) return 1;
  const weight_t* w = storage_.weights.data();
  return -parallel_reduce_max<weight_t>(
      storage_.weights.size(), [&](std::size_t i) { return -w[i]; }, -w[0]);
}

weight_t Graph::max_weight() const {
  if (num_arcs() == 0) return 0;
  if (!weighted()) return 1;
  const weight_t* w = storage_.weights.data();
  return parallel_reduce_max<weight_t>(
      storage_.weights.size(), [&](std::size_t i) { return w[i]; }, w[0]);
}

std::vector<Edge> Graph::undirected_edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (vid u = 0; u < n_; ++u) {
    for_arcs(u, 0, degree(u), [](vid) {}, [&](eid e, vid v) {
      if (u < v) out.push_back({u, v, weight(e)});
    });
  }
  return out;
}

Graph Graph::with_extra_edges(const std::vector<Edge>& extra) const {
  bool any_weighted = weighted();
  std::vector<Arc> arcs;
  arcs.reserve(2 * extra.size());
  for (const Edge& e : extra) {
    if (e.w != weight_t{1}) any_weighted = true;
    if (e.u == e.v) continue;
    arcs.push_back({e.u, e.v, e.w});
    arcs.push_back({e.v, e.u, e.w});
  }
  parallel_sort(arcs, arc_less);
  // Row u's extra arcs are arcs[first[u], first[u + 1]).
  std::vector<std::size_t> first(static_cast<std::size_t>(n_) + 1, 0);
  for (const Arc& a : arcs) ++first[a.u + 1];
  for (vid u = 0; u < n_; ++u) first[u + 1] += first[u];
  return graph_from_rows(n_, any_weighted, [&](std::size_t r, auto&& emit) {
    const vid u = static_cast<vid>(r);
    std::size_t x = first[u];
    const std::size_t x_end = first[u + 1];
    for_arcs(u, 0, degree(u), [](vid) {}, [&](eid e, vid v) {
      for (; x < x_end && arcs[x].v <= v; ++x) emit(arcs[x].v, arcs[x].w);
      if (v != u) emit(v, weight(e));
    });
    for (; x < x_end; ++x) emit(arcs[x].v, arcs[x].w);
  });
}

Graph Graph::prune_heavier_than(weight_t cap) const {
  return graph_from_rows(n_, false, [&](std::size_t r, auto&& emit) {
    const vid u = static_cast<vid>(r);
    for_arcs(u, 0, degree(u), [](vid) {}, [&](eid e, vid v) {
      const weight_t w = weight(e);
      if (v != u && w <= cap) emit(v, w);
    });
  });
}

std::size_t Graph::decode_adjacency_chunk(vid u, std::size_t chunk, vid* out) const {
  const GraphStorage& st = storage_;
  const std::size_t deg = degree(u);
  const std::uint64_t local_chunks = st.chunk_start[u + 1] - st.chunk_start[u];
  if (chunk >= local_chunks) corrupt_adjacency(u, chunk, "chunk index out of range");
  const std::size_t count = std::min(kAdjChunk, deg - chunk * kAdjChunk);
  const std::uint64_t gc = st.chunk_start[u] + chunk;
  const std::uint64_t byte_lo = st.chunk_bytes[gc];
  const std::uint64_t byte_hi = st.chunk_bytes[gc + 1];
  if (byte_lo > byte_hi || byte_hi > st.stream.size())
    corrupt_adjacency(u, chunk, "chunk byte range out of bounds");
  const std::uint8_t* p = st.stream.data() + byte_lo;
  const std::uint8_t* end = st.stream.data() + byte_hi;
  std::uint64_t cur = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t val = 0;
    if (!varint_decode(p, end, &val))
      corrupt_adjacency(u, chunk, "truncated varint");
    cur = (i == 0) ? val : cur + val;  // first is absolute, rest are gaps
    if (cur >= n_) corrupt_adjacency(u, chunk, "target out of range");
    out[i] = static_cast<vid>(cur);
  }
  if (p != end) corrupt_adjacency(u, chunk, "trailing bytes in chunk");
  return count;
}

Graph Graph::compress_adjacency() const {
  if (compressed() && storage_.targets.empty()) return *this;
  assert(has_flat_adjacency());
  const vid n = n_;
  const vid* tgt = storage_.targets.data();

  // Chunk index: chunk_start[v] = global id of v's first chunk.
  std::vector<eid> chunk_start(static_cast<std::size_t>(n) + 1, 0);
  parallel_for(0, n, [&](std::size_t v) {
    chunk_start[v] = (degree(static_cast<vid>(v)) + kAdjChunk - 1) / kAdjChunk;
  });
  const std::uint64_t total_chunks = exclusive_scan_inplace(chunk_start);

  // Pass 1: per-chunk encoded sizes (into what becomes the offset array).
  std::vector<std::uint64_t> chunk_bytes(total_chunks + 1, 0);
  parallel_for(0, n, [&](std::size_t vs) {
    const vid v = static_cast<vid>(vs);
    const eid base = begin(v);
    const std::size_t deg = degree(v);
    for (std::size_t lo = 0, c = 0; lo < deg; lo += kAdjChunk, ++c) {
      const std::size_t hi = std::min(deg, lo + kAdjChunk);
      std::size_t bytes = varint_size(tgt[base + lo]);
      for (std::size_t j = lo + 1; j < hi; ++j) {
        // CSR adjacency is sorted by construction; gap encoding depends on it.
        assert(tgt[base + j] >= tgt[base + j - 1]);
        bytes += varint_size(tgt[base + j] - tgt[base + j - 1]);
      }
      chunk_bytes[chunk_start[v] + c] = bytes;
    }
  });
  const std::uint64_t stream_len = exclusive_scan_inplace(chunk_bytes);

  // Pass 2: encode each chunk at its now-known stream offset.
  std::vector<std::uint8_t> stream(stream_len);
  parallel_for(0, n, [&](std::size_t vs) {
    const vid v = static_cast<vid>(vs);
    const eid base = begin(v);
    const std::size_t deg = degree(v);
    for (std::size_t lo = 0, c = 0; lo < deg; lo += kAdjChunk, ++c) {
      const std::size_t hi = std::min(deg, lo + kAdjChunk);
      std::size_t pos = chunk_bytes[chunk_start[v] + c];
      auto emit = [&](std::uint32_t x) {
        while (x >= 0x80u) {
          stream[pos++] = static_cast<std::uint8_t>(x) | 0x80u;
          x >>= 7;
        }
        stream[pos++] = static_cast<std::uint8_t>(x);
      };
      emit(tgt[base + lo]);
      for (std::size_t j = lo + 1; j < hi; ++j)
        emit(tgt[base + j] - tgt[base + j - 1]);
    }
  });

  Graph g = *this;  // shares offsets and weights
  g.storage_.targets.reset();
  g.storage_.chunk_start = ArrayHandle<eid>::adopt(std::move(chunk_start));
  g.storage_.chunk_bytes =
      ArrayHandle<std::uint64_t>::adopt(std::move(chunk_bytes));
  g.storage_.stream = ArrayHandle<std::uint8_t>::adopt(std::move(stream));
  return g;
}

Graph Graph::decompress_adjacency() const {
  if (has_flat_adjacency()) {
    Graph g = *this;
    g.storage_.chunk_start.reset();
    g.storage_.chunk_bytes.reset();
    g.storage_.stream.reset();
    return g;
  }
  std::vector<vid> targets(num_arcs());
  // A corrupt chunk throws out of the decode; the pool rethrows it from
  // parallel_for.
  parallel_for(0, n_, [&](std::size_t vs) {
    const vid v = static_cast<vid>(vs);
    const eid base = begin(v);
    const std::size_t deg = degree(v);
    vid buf[kAdjChunk];
    for (std::size_t lo = 0, c = 0; lo < deg; lo += kAdjChunk, ++c) {
      const std::size_t count = decode_adjacency_chunk(v, c, buf);
      for (std::size_t j = 0; j < count; ++j) targets[base + lo + j] = buf[j];
    }
  });
  Graph g = *this;
  g.storage_.targets = ArrayHandle<vid>::adopt(std::move(targets));
  g.storage_.chunk_start.reset();
  g.storage_.chunk_bytes.reset();
  g.storage_.stream.reset();
  return g;
}

bool Graph::validate() const {
  const GraphStorage& st = storage_;
  if (st.offsets.size() != static_cast<std::size_t>(n_) + 1) return false;
  if (st.offsets[0] != 0) return false;
  const eid m = st.offsets.back();
  if (!st.targets.empty() && st.targets.size() != m) return false;
  if (st.targets.empty() && m != 0 && !compressed()) return false;
  if (!st.weights.empty() && st.weights.size() != m) return false;
  if (compressed()) {
    if (st.chunk_start.size() != static_cast<std::size_t>(n_) + 1) return false;
    if (st.chunk_start[0] != 0) return false;
    if (st.chunk_bytes.size() != st.chunk_start.back() + 1) return false;
    if (st.chunk_bytes.back() != st.stream.size()) return false;
    for (vid v = 0; v < n_; ++v) {
      const eid want = (end(v) - begin(v) + kAdjChunk - 1) / kAdjChunk;
      if (st.chunk_start[v + 1] - st.chunk_start[v] != want) return false;
    }
  }
  for (vid v = 0; v < n_; ++v) {
    if (st.offsets[v] > st.offsets[v + 1]) return false;
  }
  try {
    for (vid v = 0; v < n_; ++v) {
      bool ok = true;
      vid prev = 0;
      bool first = true;
      for_arcs(v, 0, degree(v), [](vid) {}, [&](eid e, vid t) {
        if (t >= n_ || t == v) ok = false;            // range / self loop
        if (!first && t < prev) ok = false;           // sorted
        if (weight(e) <= 0) ok = false;
        prev = t;
        first = false;
      });
      if (!ok) return false;
    }
    // Symmetry: every arc (u,v,w) must have a matching (v,u,w). Adjacency
    // is sorted, so the reverse scan can stop once targets pass u.
    for (vid u = 0; u < n_; ++u) {
      bool ok = true;
      for_arcs(u, 0, degree(u), [](vid) {}, [&](eid e, vid v) {
        const weight_t w = weight(e);
        bool found = false;
        scan_arcs(v, [](vid) {}, [&](eid f, vid t) {
          if (t == u && weight(f) == w) found = true;
          return found || t > u;
        });
        if (!found) ok = false;
      });
      if (!ok) return false;
    }
  } catch (const std::exception&) {
    return false;  // corrupt compressed stream
  }
  return true;
}

}  // namespace parsh
