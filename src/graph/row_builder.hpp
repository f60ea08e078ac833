// Linear-work CSR builders for graphs derived from already-sorted rows.
//
// Graph::from_edges sorts its whole input: O(m log m) plus fresh arc
// arrays. A graph derived from an existing CSR (a weight filter, an
// induced subgraph, the union with a few extra arcs) already has its rows
// in target order, so it is built here row by row instead: count each
// row, exclusive-scan the counts into offsets, fill each row at its
// offset. Both passes are parallel_for loops over rows and every entry is
// written by one row at a fixed position, so the arrays are identical at
// any worker count. The result is the graph from_edges would build from
// the same arcs: parallel arcs merged to the minimum weight, rows sorted,
// and a weights array present under the same rule.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"

namespace parsh {

namespace detail {

/// Sort one filled row by target (its targets are distinct), carrying the
/// weights along when the row has them.
inline void sort_row(vid* t, weight_t* w, std::size_t k) {
  if (w == nullptr) {
    std::sort(t, t + k);
    return;
  }
  std::vector<std::pair<vid, weight_t>> row(k);
  for (std::size_t i = 0; i < k; ++i) row[i] = {t[i], w[i]};
  std::sort(row.begin(), row.end());
  for (std::size_t i = 0; i < k; ++i) {
    t[i] = row[i].first;
    w[i] = row[i].second;
  }
}

}  // namespace detail

/// Build one graph per block of rows: rows [start[c], start[c+1]) are
/// vertices 0, 1, ... of graph c. `row(r, emit)` calls `emit(v, w)` for
/// every arc of row r, with v a vertex of r's graph other than r's own.
/// Arcs with equal targets must be emitted next to each other; they merge
/// into one arc of the minimum weight. A row emitted out of target order
/// is sorted. Graph c carries a weights array iff `weighted` is set or
/// some arc emitted into it (merged ones included) has a weight other
/// than 1. `row` is called twice per row and must emit the same arcs both
/// times.
template <typename Row>
std::vector<Graph> graphs_from_rows(const std::vector<std::size_t>& start,
                                    bool weighted, Row row) {
  const std::size_t k = start.size() - 1;
  const std::size_t rows = start[k];

  // Pass 1: distinct targets per row, and whether any weight is not 1.
  std::vector<eid> off(rows + 1, 0);
  std::vector<char> heavy(rows, 0);
  parallel_for(0, rows, [&](std::size_t r) {
    eid count = 0;
    vid last = kNoVertex;
    bool h = false;
    row(r, [&](vid v, weight_t w) {
      if (v != last) {
        ++count;
        last = v;
      }
      if (w != weight_t{1}) h = true;
    });
    off[r] = count;
    heavy[r] = h;
  });
  exclusive_scan_inplace(off);

  // Per graph: offsets relative to its first row, arrays sized.
  std::vector<vid> graph_of(k > 1 ? rows : 0);
  std::vector<std::vector<eid>> offsets(k);
  std::vector<std::vector<vid>> targets(k);
  std::vector<std::vector<weight_t>> weights(k);
  parallel_for_grain(0, k, 1, [&](std::size_t c) {
    const std::size_t lo = start[c], hi = start[c + 1];
    if (k > 1) std::fill(graph_of.begin() + lo, graph_of.begin() + hi, static_cast<vid>(c));
    if (k == 1) {
      offsets[c] = std::move(off);
    } else {
      offsets[c].resize(hi - lo + 1);
      for (std::size_t r = lo; r <= hi; ++r) offsets[c][r - lo] = off[r] - off[lo];
    }
    const eid m = offsets[c].back();
    targets[c].resize(m);
    const bool w = weighted || std::any_of(heavy.begin() + lo, heavy.begin() + hi,
                                           [](char h) { return h != 0; });
    if (w) weights[c].resize(m);
  });

  // Pass 2: fill each row at its offset, merging equal neighbours.
  parallel_for(0, rows, [&](std::size_t r) {
    const std::size_t c = k > 1 ? graph_of[r] : 0;
    const eid base = offsets[c][r - start[c]];
    vid* t = targets[c].data() + base;
    weight_t* w = weights[c].empty() ? nullptr : weights[c].data() + base;
    std::size_t n = 0;
    bool sorted = true;
    row(r, [&](vid v, weight_t x) {
      if (n > 0 && t[n - 1] == v) {
        if (w != nullptr && x < w[n - 1]) w[n - 1] = x;
        return;
      }
      if (n > 0 && v < t[n - 1]) sorted = false;
      t[n] = v;
      if (w != nullptr) w[n] = x;
      ++n;
    });
    if (!sorted) detail::sort_row(t, w, n);
  });

  std::vector<Graph> out;
  out.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    GraphStorage st;
    st.offsets = ArrayHandle<eid>::adopt(std::move(offsets[c]));
    st.targets = ArrayHandle<vid>::adopt(std::move(targets[c]));
    if (!weights[c].empty()) st.weights = ArrayHandle<weight_t>::adopt(std::move(weights[c]));
    out.push_back(Graph::from_storage(static_cast<vid>(start[c + 1] - start[c]), std::move(st)));
  }
  return out;
}

/// The one-graph case: rows [0, n) are the vertices of the result.
template <typename Row>
Graph graph_from_rows(vid n, bool weighted, Row row) {
  return std::move(graphs_from_rows({0, n}, weighted, std::move(row)).front());
}

}  // namespace parsh
