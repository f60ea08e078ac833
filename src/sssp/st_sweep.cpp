#include "sssp/st_sweep.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "graph/validation.hpp"
#include "parallel/work_depth.hpp"

namespace parsh {
namespace {

constexpr std::size_t kNoKey = ~std::size_t{0};
/// Largest key: past 2^53 a double sum can round onto the key being
/// settled, which the queue's forward-only cursor cannot take.
constexpr weight_t kMaxKey = 0x1p53 - 1;
/// Largest key window: 256 KiB of list heads per workspace. Farther keys
/// wait in the overflow heap.
constexpr std::size_t kMaxWindow = std::size_t{1} << 16;
/// DialLink::prev of a vertex waiting in the overflow heap (a vertex id
/// only in a graph of 2^32 - 1 vertices).
constexpr vid kInOverflow = kNoVertex - 1;

/// The workspace state the queue runs on (bundled so the queue stays out
/// of SsspWorkspace's friend surface).
struct StQueueRefs {
  std::vector<detail::DialLink>& links;
  std::vector<vid>& head;
  std::vector<std::uint64_t>& bits;
  std::vector<std::uint64_t>& summary;
  std::vector<detail::DialOverflow>& overflow;
  const std::vector<std::atomic<weight_t>>& dist;
  std::atomic<std::uint64_t>& allocs;
};

/// Dial's bucket queue over integer keys, on workspace storage.
///
///  * A circular window of slots (key mod its size) holds the keys in
///    [cursor, bound()): one intrusive doubly linked vertex list per slot,
///    a bitmap of the nonempty slots and a summary bitmap of the nonzero
///    bitmap words, so skipping empty keys costs one word per 4096. The
///    cursor only moves forward (every push lands strictly after the key
///    being settled, since weights are >= 1), and decrease-key unlinks in
///    O(1).
///  * The window grows lazily, doubling up to kMaxWindow, so its size
///    follows the highest key a sweep reaches rather than the distance
///    cap (which reaches 3e9 on a 1M-edge RMAT with a coarse scale
///    ladder).
///  * Keys at or past bound() wait in a min-heap. A decrease-key leaves
///    the old heap entry behind, stale. When the window runs dry, the
///    least live heap key restarts it.
///
/// Between runs every bit is clear and the heap is empty; a slot's head
/// is meaningful only while its bit is set.
class DialQueue {
 public:
  explicit DialQueue(StQueueRefs refs) : r_(refs), size_(r_.head.size()) {}

  void push(vid v, std::size_t key) {
    if (key >= size_ && size_ < kMaxWindow) grow_(key);
    if (key < bound_()) {
      push_window_(v, key);
      return;
    }
    r_.links[v].prev = kInOverflow;
    detail::push_counted(r_.overflow, {key, v}, r_.allocs);
    std::push_heap(r_.overflow.begin(), r_.overflow.end(), later_);
    heap_min_ = r_.overflow.front().key;
  }

  void unlink(vid v, std::size_t key) {
    const vid prev = r_.links[v].prev;
    if (prev == kInOverflow) return;  // its heap entry is stale now
    const vid next = r_.links[v].next;
    if (next != kNoVertex) r_.links[next].prev = prev;
    if (prev != kNoVertex) {
      r_.links[prev].next = next;
      return;
    }
    const std::size_t slot = key & (size_ - 1);
    r_.head[slot] = next;
    if (next != kNoVertex) return;
    std::uint64_t& word = r_.bits[slot >> 6];
    word &= ~(std::uint64_t{1} << (slot & 63));
    if (word == 0) r_.summary[slot >> 12] &= ~(std::uint64_t{1} << ((slot >> 6) & 63));
  }

  /// Least queued key, or kNoKey once the queue is empty.
  std::size_t min_key() {
    for (;;) {
      const std::size_t end = bound_();
      const std::size_t mask = size_ - 1;
      for (std::size_t key = cursor_; key < end;) {
        std::size_t slot = key & mask;
        const std::uint64_t word = r_.bits[slot >> 6] >> (slot & 63);
        if (word != 0) {
          cursor_ = key + static_cast<std::size_t>(std::countr_zero(word));
          assert(cursor_ < end);
          return cursor_;
        }
        // Skip empty words through the summary; every step stays aligned
        // with the slots, so the circular mapping holds.
        key += 64 - (slot & 63);
        slot = key & mask;
        const std::uint64_t sum = r_.summary[slot >> 12] >> ((slot >> 6) & 63);
        key += sum != 0 ? 64 * static_cast<std::size_t>(std::countr_zero(sum))
                        : 4096 - (slot & 4095);
      }
      if (!refill_()) return kNoKey;
    }
  }

  /// Remove and return the first vertex of nonempty key `key`.
  vid pop(std::size_t key) {
    const vid v = r_.head[key & (size_ - 1)];
    unlink(v, key);
    return v;
  }

  /// Restore the between-runs invariant (clear bits, empty heap).
  void clear() {
    for (std::size_t i = 0; i < r_.summary.size(); ++i) {
      for (std::uint64_t& sum = r_.summary[i]; sum != 0; sum &= sum - 1) {
        r_.bits[64 * i + static_cast<std::size_t>(std::countr_zero(sum))] = 0;
      }
    }
    r_.overflow.clear();
  }

 private:
  static bool later_(const detail::DialOverflow& a, const detail::DialOverflow& b) {
    return a.key > b.key;
  }

  /// Window keys lie below this, heap keys at or above it. Until the
  /// window is full-size no key wraps, so growth keeps every slot.
  [[nodiscard]] std::size_t bound_() const {
    return size_ < kMaxWindow ? size_ : std::min(cursor_ + size_, heap_min_);
  }

  void push_window_(vid v, std::size_t key) {
    const std::size_t slot = key & (size_ - 1);
    const bool nonempty = (r_.bits[slot >> 6] >> (slot & 63)) & 1;
    const vid first = nonempty ? r_.head[slot] : kNoVertex;
    r_.links[v].next = first;
    r_.links[v].prev = kNoVertex;
    if (first != kNoVertex) r_.links[first].prev = v;
    r_.head[slot] = v;
    r_.bits[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    r_.summary[slot >> 12] |= std::uint64_t{1} << ((slot >> 6) & 63);
  }

  /// Double the window until it covers `key` or reaches kMaxWindow.
  void grow_(std::size_t key) {
    const std::size_t size =
        std::min(kMaxWindow, std::bit_ceil(std::max<std::size_t>(key + 1, 64)));
    if (size > r_.head.capacity()) r_.allocs.fetch_add(1, std::memory_order_relaxed);
    r_.head.resize(size);
    if (size / 64 > r_.bits.capacity()) r_.allocs.fetch_add(1, std::memory_order_relaxed);
    r_.bits.resize(size / 64, 0);  // new words are clear; old ones are by invariant
    const std::size_t sums = (size / 64 + 63) / 64;
    if (sums > r_.summary.capacity()) r_.allocs.fetch_add(1, std::memory_order_relaxed);
    r_.summary.resize(sums, 0);
    size_ = size;
  }

  /// The window is empty: restart it at the least live heap key and move
  /// every heap entry that now fits into it. False if none is left.
  bool refill_() {
    auto pop_heap = [&] {
      std::pop_heap(r_.overflow.begin(), r_.overflow.end(), later_);
      const detail::DialOverflow e = r_.overflow.back();
      r_.overflow.pop_back();
      return e;
    };
    auto live = [&](const detail::DialOverflow& e) {
      const weight_t d = r_.dist[e.v].load(std::memory_order_relaxed);
      return static_cast<std::size_t>(d) == e.key;
    };
    while (!r_.overflow.empty() && !live(r_.overflow.front())) pop_heap();
    if (r_.overflow.empty()) {
      heap_min_ = kNoKey;
      return false;
    }
    cursor_ = r_.overflow.front().key;
    const std::size_t end = cursor_ + size_;
    while (!r_.overflow.empty() && r_.overflow.front().key < end) {
      const detail::DialOverflow e = pop_heap();
      if (live(e)) push_window_(e.v, e.key);
    }
    heap_min_ = r_.overflow.empty() ? kNoKey : r_.overflow.front().key;
    return true;
  }

  StQueueRefs r_;
  std::size_t size_;               // window slots: a power of two, or 0
  std::size_t heap_min_ = kNoKey;  // least heap key, live or stale
  std::size_t cursor_ = 0;
};

}  // namespace

StSweepStats st_sweep(const Graph& g, vid source, vid target, weight_t dist_limit,
                      SsspWorkspace& ws, const Deadline& deadline) {
  require_vertex(g, source, "st_sweep");
  const bool targeted = target != kNoVertex;
  if (targeted) require_vertex(g, target, "st_sweep");
  // Keys are the distances themselves, exact in a double below 2^53.
  if (!(dist_limit >= 0 && (dist_limit <= kMaxKey || !targeted))) {
    throw std::invalid_argument("st_sweep: dist_limit must lie in [0, 2^53)");
  }
  const weight_t cap = std::min(dist_limit, kMaxKey);
  const vid n = g.num_vertices();
  ws.begin_run_(n);
  if (ws.dial_links_.size() < n) {
    ++ws.grow_events_;
    ws.dial_links_.resize(std::max<std::size_t>(n, ws.vertex_capacity_));
  }
  auto& dist = ws.dist_;
  auto& links = ws.dial_links_;
  auto dist_of = [&](vid v) { return dist[v].load(std::memory_order_relaxed); };
  auto set_dist = [&](vid v, weight_t d) { dist[v].store(d, std::memory_order_relaxed); };

  StSweepStats stats;
  set_dist(source, 0);
  links[source].hops = 0;
  detail::push_counted(ws.touched_, source, ws.scratch_allocs_);
  if (source == target) return stats;

  DialQueue queue({links, ws.key_head_, ws.key_bits_, ws.key_summary_,
                   ws.key_overflow_, dist, ws.scratch_allocs_});
  queue.push(source, 0);
  weight_t dt = kInfWeight;
  std::uint32_t max_hops = 0;
  std::uint64_t settled = 0;
  bool capped = false;  // an untargeted sweep pruned a key past kMaxKey
  const bool check_deadline = !deadline.never_expires();
  std::size_t last_key = kNoKey;
  for (std::size_t key; (key = queue.min_key()) != kNoKey;) {
    const auto du = static_cast<weight_t>(key);
    // t's key is the least left: every lighter vertex is settled, and so
    // are all of t's lightest in-paths' last hops (weights >= 1 put them
    // in earlier keys), so its hop label is final.
    if (du >= dt) break;
    if (check_deadline && (++settled & 255) == 0 && deadline.expired()) {
      stats.deadline_hit = true;
      break;
    }
    stats.keys += key != last_key;
    last_key = key;
    const vid u = queue.pop(key);
    assert(dist_of(u) == du);
    const std::uint32_t hops = links[u].hops + 1;
    max_hops = std::max(max_hops, links[u].hops);
    const vid deg = g.degree(u);
    stats.relaxations += deg;
    g.for_arcs(u, 0, deg, [](vid) {}, [&](eid e, vid v) {
      const weight_t w = g.weight(e);
      assert(w >= 1 && w == std::floor(w) && "st_sweep requires integer weights");
      const weight_t nd = du + w;
      // Strict: an equal-weight path may still carry fewer hops.
      if (nd > cap || nd > dt) {
        capped = capped || (nd > cap && nd <= dist_limit && dist_of(v) == kInfWeight);
        return;
      }
      const weight_t dv = dist_of(v);
      if (nd < dv) {
        if (dv == kInfWeight) {
          detail::push_counted(ws.touched_, v, ws.scratch_allocs_);
        } else {
          queue.unlink(v, static_cast<std::size_t>(dv));
        }
        set_dist(v, nd);
        links[v].hops = hops;
        queue.push(v, static_cast<std::size_t>(nd));
        if (v == target) dt = nd;
      } else if (nd == dv && hops < links[v].hops) {
        links[v].hops = hops;  // same key: v stays where it is
      }
    });
  }
  queue.clear();
  if (capped && !stats.deadline_hit) {
    // Fail if some vertex within dist_limit is still unreached: every
    // arc into it then carries a distance past kMaxKey.
    for (vid u : ws.touched_) {
      g.for_arcs(u, 0, g.degree(u), [](vid) {}, [&](eid e, vid v) {
        if (dist_of(u) + g.weight(e) <= dist_limit && dist_of(v) == kInfWeight) {
          throw std::range_error("st_sweep: a distance reached 2^53");
        }
      });
    }
  }
  stats.hops = dt != kInfWeight ? links[target].hops : max_hops;
  wd::add_work(stats.relaxations);
  wd::add_round(targeted ? stats.hops : stats.keys);
  return stats;
}

}  // namespace parsh
