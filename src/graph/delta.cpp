#include "graph/delta.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "parallel/sort.hpp"

namespace parsh {

namespace {

/// One raw operation after endpoint normalization (u < v).
struct Op {
  vid u, v;
  bool is_insert;
  weight_t w;
};

/// One normalized per-pair group: the batch's net effect on {u,v}.
struct PairOp {
  vid u, v;
  weight_t w_new;        ///< 0 = absent after the batch
  std::uint64_t n_ops;   ///< raw operations that mapped to this pair
};

/// Directed half of an EdgeChange, for the per-vertex merge.
struct DirChange {
  vid src, dst;
  weight_t w_new;
  std::uint8_t kind;  // 0 = add, 1 = delete, 2 = reweight
};
constexpr std::uint8_t kAdd = 0, kDel = 1, kRew = 2;

/// Current weight of undirected edge {u,v}, or 0 if absent. Scans the
/// lower-degree endpoint's (sorted) adjacency with early exit; works on
/// flat and compressed representations alike.
weight_t current_weight(const Graph& g, vid u, vid v) {
  if (g.degree(v) < g.degree(u)) std::swap(u, v);
  weight_t w = 0;
  g.scan_arcs(u, [](vid) {}, [&](eid e, vid t) {
    if (t == v) {
      w = g.weight(e);
      return true;
    }
    return t > v;
  });
  return w;
}

/// Arc id of directed arc u->v; the edge must exist.
eid find_arc(const Graph& g, vid u, vid v) {
  eid arc = 0;
  bool found = false;
  g.scan_arcs(u, [](vid) {}, [&](eid e, vid t) {
    if (t == v) {
      arc = e;
      found = true;
      return true;
    }
    return t > v;
  });
  assert(found);
  (void)found;
  return arc;
}

[[noreturn]] void bad_delta(const char* what, vid u, vid v) {
  throw std::invalid_argument(std::string("GraphDelta: ") + what + " at edge {" +
                              std::to_string(u) + "," + std::to_string(v) + "}");
}

}  // namespace

DeltaResult Graph::apply_delta(const GraphDelta& delta) const {
  const vid n = n_;

  // -- Validate and normalize raw ops (self loops become counted no-ops). --
  DeltaResult res;
  std::vector<Op> ops;
  ops.reserve(delta.insert.size() + delta.remove.size());
  for (const Edge& e : delta.remove) {
    if (e.u >= n || e.v >= n) bad_delta("endpoint out of range", e.u, e.v);
    if (e.u == e.v) {
      ++res.noops;
      continue;
    }
    ops.push_back({std::min(e.u, e.v), std::max(e.u, e.v), false, 0});
  }
  for (const Edge& e : delta.insert) {
    if (e.u >= n || e.v >= n) bad_delta("endpoint out of range", e.u, e.v);
    if (!(e.w > 0)) bad_delta("non-positive insert weight", e.u, e.v);
    if (e.u == e.v) {
      ++res.noops;
      continue;
    }
    ops.push_back({std::min(e.u, e.v), std::max(e.u, e.v), true, e.w});
  }
  parallel_sort(ops, [](const Op& a, const Op& b) {
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });

  // -- Collapse each {u,v} group to its net effect. Inserts win over
  // removals in the same batch; duplicate inserts keep the minimum weight
  // (the from_edges parallel-edge convention). --
  std::vector<PairOp> pairs;
  for (std::size_t i = 0; i < ops.size();) {
    std::size_t j = i;
    weight_t w_new = 0;  // removes-only group => absent
    bool any_insert = false;
    while (j < ops.size() && ops[j].u == ops[i].u && ops[j].v == ops[i].v) {
      if (ops[j].is_insert) {
        w_new = any_insert ? std::min(w_new, ops[j].w) : ops[j].w;
        any_insert = true;
      }
      ++j;
    }
    pairs.push_back({ops[i].u, ops[i].v, w_new,
                     static_cast<std::uint64_t>(j - i)});
    i = j;
  }

  // -- Diff against the current graph: pairs whose net effect restates the
  // present state are no-ops; the rest become the change set (already
  // sorted by (u,v) since the ops were). --
  bool structural = false;
  bool any_nonunit_new = false;
  for (const PairOp& p : pairs) {
    const weight_t w_old = current_weight(*this, p.u, p.v);
    if (w_old == p.w_new) {
      res.noops += p.n_ops;
      continue;
    }
    res.changes.push_back({p.u, p.v, w_old, p.w_new});
    if (w_old == 0) ++res.inserted;
    else if (p.w_new == 0) ++res.removed;
    else ++res.reweighted;
    if (w_old == 0 || p.w_new == 0) structural = true;
    if (p.w_new != 0 && p.w_new != 1) any_nonunit_new = true;
  }

  // -- Tier 1: nothing changed — share every handle (O(1)). --
  if (res.changes.empty()) {
    res.graph = *this;
    return res;
  }

  res.touched.reserve(res.changes.size() * 2);
  for (const EdgeChange& c : res.changes) {
    res.touched.push_back(c.u);
    res.touched.push_back(c.v);
  }
  std::sort(res.touched.begin(), res.touched.end());
  res.touched.erase(std::unique(res.touched.begin(), res.touched.end()),
                    res.touched.end());

  // -- Tier 2: reweight-only — adjacency (flat or compressed) is shared;
  // only a new weights array is materialized. Distinct pairs touch
  // distinct arc slots, so the scatter parallelizes race-free. --
  if (!structural) {
    std::vector<weight_t> w;
    if (weighted()) {
      w.assign(storage_.weights.data(),
               storage_.weights.data() + storage_.weights.size());
    } else {
      w.assign(num_arcs(), weight_t{1});
    }
    parallel_for(0, res.changes.size(), [&](std::size_t i) {
      const EdgeChange& c = res.changes[i];
      w[find_arc(*this, c.u, c.v)] = c.w_new;
      w[find_arc(*this, c.v, c.u)] = c.w_new;
    });
    Graph g = *this;
    g.storage_.weights = ArrayHandle<weight_t>::adopt(std::move(w));
    res.graph = std::move(g);
    return res;
  }

  // -- Tier 3: structural — rebuild the adjacency with a parallel
  // per-vertex merge of the old (sorted) arcs and the sorted directed
  // change list. Count pass, exclusive scan, fill pass; every write goes
  // to a slot fixed by the inputs, so any worker count produces identical
  // arrays. --
  std::vector<DirChange> dir(res.changes.size() * 2);
  parallel_for(0, res.changes.size(), [&](std::size_t i) {
    const EdgeChange& c = res.changes[i];
    const std::uint8_t kind = c.w_old == 0 ? kAdd : (c.w_new == 0 ? kDel : kRew);
    dir[2 * i] = {c.u, c.v, c.w_new, kind};
    dir[2 * i + 1] = {c.v, c.u, c.w_new, kind};
  });
  parallel_sort(dir, [](const DirChange& a, const DirChange& b) {
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  });

  std::vector<std::int64_t> ddeg(n, 0);
  for (const DirChange& d : dir) {
    if (d.kind == kAdd) ++ddeg[d.src];
    else if (d.kind == kDel) --ddeg[d.src];
  }

  std::vector<eid> offsets(static_cast<std::size_t>(n) + 1, 0);
  parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t v) {
    offsets[v] = static_cast<eid>(
        static_cast<std::int64_t>(degree(static_cast<vid>(v))) + ddeg[v]);
  });
  const eid m_new = exclusive_scan_inplace(offsets);

  const bool need_w = weighted() || any_nonunit_new;
  std::vector<vid> targets(m_new);
  std::vector<weight_t> weights(need_w ? m_new : 0);
  parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t us) {
    const vid u = static_cast<vid>(us);
    auto by_src = [](const DirChange& d, vid s) { return d.src < s; };
    const auto lo = std::lower_bound(dir.begin(), dir.end(), u, by_src);
    const auto hi = std::lower_bound(lo, dir.end(), u + 1, by_src);
    const DirChange* p = dir.data() + (lo - dir.begin());
    const DirChange* pend = dir.data() + (hi - dir.begin());
    std::size_t pos = offsets[us];
    auto emit = [&](vid t, weight_t w) {
      targets[pos] = t;
      if (need_w) weights[pos] = w;
      ++pos;
    };
    // A corrupt compressed stream throws out of the decode; the pool
    // rethrows it from parallel_for.
    for_arcs(u, 0, degree(u), [](vid) {}, [&](eid e, vid t) {
      while (p != pend && p->dst < t) {
        if (p->kind == kAdd) emit(p->dst, p->w_new);
        ++p;
      }
      if (p != pend && p->dst == t) {
        if (p->kind != kDel) emit(t, p->w_new);
        ++p;
        return;
      }
      emit(t, weight(e));
    });
    while (p != pend) {
      if (p->kind == kAdd) emit(p->dst, p->w_new);
      ++p;
    }
    assert(pos == offsets[us + 1]);
  });

  Graph g;
  g.n_ = n;
  g.storage_.offsets = ArrayHandle<eid>::adopt(std::move(offsets));
  g.storage_.targets = ArrayHandle<vid>::adopt(std::move(targets));
  if (need_w) g.storage_.weights = ArrayHandle<weight_t>::adopt(std::move(weights));
  if (compressed()) g = g.compress_adjacency();
  res.graph = std::move(g);
  return res;
}

}  // namespace parsh
