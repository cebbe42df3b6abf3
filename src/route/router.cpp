#include "route/router.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "util/check.hpp"
#include "util/faults.hpp"
#include "util/obs.hpp"

namespace cals {
namespace {

/// Shared edge-cost model for pattern and maze routing. Base wire cost 1;
/// congestion terms follow PathFinder: a present penalty for edges at/over
/// capacity plus an accumulated history cost. Every cached cost below is
/// recomputed through this one function, so a cached value is always the
/// exact double the seed implementation would have computed on the fly.
inline double edge_cost(double usage, double capacity, double history, double penalty) {
  double c = 1.0 + history;
  if (usage + 1.0 > capacity) c += penalty * (usage + 1.0 - capacity);
  return c;
}

/// Per-edge overflow contribution: max(0, ceil(usage - capacity)). Integral,
/// so maintaining the total incrementally is exact.
inline std::uint64_t overflow_contribution(double usage, double capacity) {
  return usage > capacity ? static_cast<std::uint64_t>(std::ceil(usage - capacity)) : 0;
}

}  // namespace

/// The negotiated global router and its incremental session, restructured
/// around two hot-path ideas (DESIGN.md §7) while staying bit-identical to
/// the straightforward implementation (kept as `reference_route` in
/// tests/test_route_equivalence):
///
///  1. Dirty-set rip-up: instead of re-scanning every net's every path each
///     iteration, overflowed edges index the segments crossing them
///     (append-only lists, stale entries filtered by the same
///     overflow-at-visit predicate the full scan applied), and candidates
///     are processed in ascending (net, segment) order from a heap so the
///     reroute sequence is unchanged. Each edge's list is swept at most
///     once per round: a second sweep could enqueue nothing.
///  2. Allocation pooling: the maze heap, backtrack scratch and path buffers
///     live for the whole session; per-iteration edge-cost caches turn
///     each maze relaxation into a single load.
///
/// The pattern pass prices both L-shapes of a segment by walking them, the
/// reference's own summation order, and builds only the winner.
///
/// After run(), invalidate_nets() rips up a net subset and rebuilds its
/// topology from new pin positions (fresh segment ids appended, so existing
/// crossing lists stay valid as merely-stale entries), and reroute_dirty()
/// routes the rebuilt segments and resumes the negotiation where run() left
/// off (history, penalties and the round counter all persist).
struct Router::Impl {
  Impl(RoutingGrid& grid, const PlaceGraph& graph, const Placement& placement,
       const RouteOptions& options)
      : grid_(grid),
        graph_(graph),
        options_(options),
        nx_(grid.nx()),
        ny_(grid.ny()),
        num_h_(grid.num_h_edges()),
        num_v_(grid.num_v_edges()),
        cap_h_(grid.h_capacity()),
        cap_v_(grid.v_capacity()),
        h_usage_(grid.h_usage_data()),
        v_usage_(grid.v_usage_data()),
        h_history_(grid.h_history().data()),
        v_history_(grid.v_history().data()),
        maze_(static_cast<std::size_t>(nx_) * ny_) {
    CALS_CHECK(nx_ < 0x10000 && ny_ < 0x10000);  // maze entries pack (y<<16)|x
    // The session owns the grid's usage and history for its lifetime.
    grid.clear_usage();
    std::fill(grid.h_history().begin(), grid.h_history().end(), 0.0);
    std::fill(grid.v_history().begin(), grid.v_history().end(), 0.0);
    build_topology(placement);
    const std::size_t edges = num_h_ + num_v_;
    over_flag_.assign(edges, 0);
    over_listed_.assign(edges, 0);
    cross_.resize(edges);
    edge_stamp_.assign(edges, 0);
    seg_stamp_.assign(segments_.size(), 0);
  }

  void run() {
    pattern_pass();
    rrr_loop(options_.max_rrr_iterations);
    finish();
  }

  /// Rips up every listed net (usage removed edge by edge, overflow tracker
  /// kept exact) and rebuilds its MST topology from `placement`. The new
  /// segments get fresh ids at the end of the flattened arrays, so crossing
  /// lists registered under the old ids simply go stale — the
  /// overflow-at-visit predicate already filters stale entries. Only valid
  /// after run(); duplicates in `nets` are collapsed.
  void invalidate_nets(const std::vector<std::uint32_t>& nets, const Placement& placement) {
    CALS_CHECK_MSG(rrr_phase_, "invalidate_nets before run()");
    std::vector<std::uint32_t> order(nets);
    std::sort(order.begin(), order.end());
    order.erase(std::unique(order.begin(), order.end()), order.end());
    std::vector<GCell> pins;
    for (std::uint32_t n : order) {
      CALS_CHECK(n < graph_.nets.size());
      for (std::uint32_t s : net_segs_[n]) {
        if (!seg_paths_[s].empty()) commit_path(seg_paths_[s], -1.0, s);
        seg_paths_[s].clear();
      }
      net_segs_[n].clear();
      pins.clear();
      pins.reserve(graph_.nets[n].pins.size());
      for (std::uint32_t p : graph_.nets[n].pins)
        pins.push_back(grid_.cell_at(placement.pos[p]));
      for (const Segment& seg : mst_segments(pins)) {
        if (seg.a == seg.b) continue;
        const auto id = static_cast<std::uint32_t>(segments_.size());
        segments_.push_back(seg);
        seg_net_.push_back(n);
        seg_paths_.emplace_back();
        seg_stamp_.push_back(0);
        net_segs_[n].push_back(id);
        pending_segs_.push_back(id);
      }
    }
  }

  /// Routes every segment created by invalidate_nets (maze at the current
  /// negotiation penalty, ascending id order) and then resumes the rip-up
  /// negotiation for up to `max_iterations` rounds. The round counter,
  /// history costs and penalty schedule continue from the previous call, so
  /// the session converges instead of oscillating. Refreshes result().
  void reroute_dirty(std::uint32_t max_iterations) {
    CALS_CHECK_MSG(rrr_phase_, "reroute_dirty before run()");
    if (!pending_segs_.empty()) {
      std::sort(pending_segs_.begin(), pending_segs_.end());
      penalty_ = options_.present_penalty * (1.0 + rounds_);
      rebuild_cost_caches();
      for (std::uint32_t s : pending_segs_) {
        maze_route(segments_[s].a, segments_[s].b, options_.bbox_margin);
        commit_path(reroute_path_, 1.0, s);
        seg_paths_[s].assign(reroute_path_.begin(), reroute_path_.end());
      }
      pending_segs_.clear();
      // Commits above enqueue crossers under the previous round's marker
      // (ascending ids, so each edge is swept at most once here too); the
      // next round's over_list_ sweep re-seeds the heap from scratch, so
      // drop them rather than draining candidates twice.
      cand_heap_.clear();
    }
    rrr_loop(max_iterations);
    finish();
  }

  /// The current solution: valid after run(), refreshed by reroute_dirty().
  RouteResult& result() { return result_; }

 private:
  // ---- topology -----------------------------------------------------------
  void build_topology(const Placement& placement) {
    net_segs_.resize(graph_.nets.size());
    std::vector<GCell> pins;
    for (std::size_t n = 0; n < graph_.nets.size(); ++n) {
      const auto first = static_cast<std::uint32_t>(segments_.size());
      pins.clear();
      pins.reserve(graph_.nets[n].pins.size());
      for (std::uint32_t p : graph_.nets[n].pins)
        pins.push_back(grid_.cell_at(placement.pos[p]));
      for (const Segment& seg : mst_segments(pins)) {
        // mst_segments collapses duplicate pins, so a zero-length segment
        // would indicate a topology bug upstream; skip it defensively rather
        // than dragging a degenerate single-cell path through rip-up.
        if (seg.a == seg.b) continue;
        segments_.push_back(seg);
        seg_net_.push_back(static_cast<std::uint32_t>(n));
      }
      net_segs_[n].reserve(segments_.size() - first);
      for (std::uint32_t s = first; s < segments_.size(); ++s)
        net_segs_[n].push_back(s);
    }
    seg_paths_.resize(segments_.size());
  }

  // ---- usage accounting ---------------------------------------------------
  // Combined edge ids: [0, num_h_) are h edges, [num_h_, num_h_+num_v_) are
  // v edges shifted by num_h_.

  /// Adds `amount` to one edge's usage, keeping the overflow tracker, the
  /// overflow flags and (in the rip-up phase) the cost caches current.
  /// Returns the combined edge id.
  std::size_t add_h(std::int32_t x, std::int32_t y, double amount) {
    const std::size_t e = static_cast<std::size_t>(y) * (nx_ - 1) + x;
    double& u = h_usage_[e];
    total_overflow_ -= overflow_contribution(u, cap_h_);
    u += amount;
    total_overflow_ += overflow_contribution(u, cap_h_);
    const bool over = u > cap_h_;
    over_flag_[e] = over;
    if (over && !over_listed_[e]) {
      over_listed_[e] = 1;
      over_list_.push_back(static_cast<std::uint32_t>(e));
    }
    if (rrr_phase_)
      h_cost_[static_cast<std::size_t>(y) * nx_ + x] =
          edge_cost(u, cap_h_, h_history_[e], penalty_);
    return e;
  }

  std::size_t add_v(std::int32_t x, std::int32_t y, double amount) {
    const std::size_t e = static_cast<std::size_t>(y) * nx_ + x;
    double& u = v_usage_[e];
    total_overflow_ -= overflow_contribution(u, cap_v_);
    u += amount;
    total_overflow_ += overflow_contribution(u, cap_v_);
    const bool over = u > cap_v_;
    const std::size_t cid = num_h_ + e;
    over_flag_[cid] = over;
    if (over && !over_listed_[cid]) {
      over_listed_[cid] = 1;
      over_list_.push_back(static_cast<std::uint32_t>(cid));
    }
    if (rrr_phase_) v_cost_[e] = edge_cost(u, cap_v_, v_history_[e], penalty_);
    return e;
  }

  /// Walks a path and adds `amount` usage to every edge on it. Positive
  /// commits register `seg` in each edge's crossing list; in the rip-up
  /// phase they additionally enqueue the crossers of any edge left over
  /// capacity (the dirty-set propagation rule, DESIGN.md §7).
  void commit_path(const std::vector<GCell>& path, double amount, std::uint32_t seg) {
    CALS_CHECK(!path.empty());
    const bool registering = amount > 0.0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const GCell a = path[i];
      const GCell b = path[i + 1];
      std::size_t cid;
      if (a.y == b.y) {
        cid = add_h(std::min(a.x, b.x), a.y, amount);
      } else {
        CALS_CHECK(a.x == b.x);
        cid = num_h_ + add_v(a.x, std::min(a.y, b.y), amount);
      }
      if (registering) {
        cross_[cid].push_back(seg);
        if (rrr_phase_ && over_flag_[cid]) enqueue_crossers(cid, static_cast<std::int64_t>(seg));
      }
    }
  }

  /// True when any edge of `path` is currently over capacity — the same
  /// predicate the straightforward implementation evaluates per segment, now
  /// a flag lookup per edge.
  bool path_overflows(const std::vector<GCell>& path) const {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const GCell a = path[i];
      const GCell b = path[i + 1];
      const std::size_t cid =
          a.y == b.y ? static_cast<std::size_t>(a.y) * (nx_ - 1) + std::min(a.x, b.x)
                     : num_h_ + static_cast<std::size_t>(std::min(a.y, b.y)) * nx_ + a.x;
      if (over_flag_[cid]) return true;
    }
    return false;
  }

  // ---- candidate set ------------------------------------------------------

  /// Enqueues every segment crossing edge `cid` with id strictly greater
  /// than `after` (ascending processing order must never move backwards).
  /// Crossing lists are append-only, so they may hold stale or duplicate
  /// entries; the per-iteration stamp dedupes and the overflow-at-visit
  /// predicate filters the rest — extra candidates are exactly the segments
  /// the full scan would have checked and skipped.
  ///
  /// Sweeps each edge at most once per round (DESIGN.md §7, invariant (d)).
  /// Within a round `after` never decreases — the drain pops ascending ids
  /// and commits only the id it popped — so every entry appended since the
  /// edge's last sweep is at most the current `after`, and every older entry
  /// above it was stamped by that sweep: a second sweep enqueues nothing.
  void enqueue_crossers(std::size_t cid, std::int64_t after) {
    if (edge_stamp_[cid] == iter_marker_) return;
    edge_stamp_[cid] = iter_marker_;
    for (std::uint32_t seg : cross_[cid]) {
      if (static_cast<std::int64_t>(seg) <= after) continue;
      if (seg_stamp_[seg] == iter_marker_) continue;
      seg_stamp_[seg] = iter_marker_;
      cand_heap_.push_back(seg);
      std::push_heap(cand_heap_.begin(), cand_heap_.end(), std::greater<>());
    }
  }

  std::uint32_t pop_candidate() {
    std::pop_heap(cand_heap_.begin(), cand_heap_.end(), std::greater<>());
    const std::uint32_t seg = cand_heap_.back();
    cand_heap_.pop_back();
    return seg;
  }

  // ---- pattern pass -------------------------------------------------------

  /// The straightforward implementation's pricing of the L-shape a -> bend
  /// -> b: edge costs at the pattern penalty, summed one by one in
  /// path-walk order.
  double walk_cost(GCell a, GCell bend, GCell b) const {
    const double penalty = options_.present_penalty;
    double total = 0.0;
    const std::pair<GCell, GCell> legs[2] = {{a, bend}, {bend, b}};
    for (const auto& [from, to] : legs) {
      if (from.y == to.y) {
        const std::int32_t step = to.x > from.x ? 1 : -1;
        for (std::int32_t x = from.x; x != to.x; x += step) {
          const std::size_t e =
              static_cast<std::size_t>(from.y) * (nx_ - 1) + std::min(x, x + step);
          total += edge_cost(h_usage_[e], cap_h_, h_history_[e], penalty);
        }
      } else {
        const std::int32_t step = to.y > from.y ? 1 : -1;
        for (std::int32_t y = from.y; y != to.y; y += step) {
          const std::size_t e =
              static_cast<std::size_t>(std::min(y, y + step)) * nx_ + from.x;
          total += edge_cost(v_usage_[e], cap_v_, v_history_[e], penalty);
        }
      }
    }
    return total;
  }

  /// Appends cells strictly after `from` towards `to` along one axis.
  static void walk(std::vector<GCell>& path, GCell from, GCell to) {
    const std::int32_t dx = (to.x > from.x) ? 1 : (to.x < from.x ? -1 : 0);
    const std::int32_t dy = (to.y > from.y) ? 1 : (to.y < from.y ? -1 : 0);
    CALS_CHECK(dx == 0 || dy == 0);
    GCell cur = from;
    while (!(cur == to)) {
      cur.x += dx;
      cur.y += dy;
      path.push_back(cur);
    }
  }

  /// L-shape pattern route into `path`: the cheaper of the two single-bend
  /// paths, the horizontal-first one on a tie. Only the winner is built.
  void l_route(GCell a, GCell b, std::vector<GCell>& path) const {
    path.clear();
    path.reserve(static_cast<std::size_t>(std::abs(a.x - b.x) + std::abs(a.y - b.y)) + 1);
    path.push_back(a);
    GCell bend{b.x, a.y};  // horizontal first
    if (a.x != b.x && a.y != b.y && walk_cost(a, {a.x, b.y}, b) < walk_cost(a, bend, b))
      bend = {a.x, b.y};  // vertical first
    walk(path, a, bend);
    walk(path, bend, b);
  }

  void pattern_pass() {
    CALS_TRACE_SCOPE_ARG("route.pattern", "segments", segments_.size());
    for (std::uint32_t s = 0; s < segments_.size(); ++s) {
      std::vector<GCell>& path = seg_paths_[s];
      l_route(segments_[s].a, segments_[s].b, path);
      commit_path(path, 1.0, s);
    }
    CALS_OBS_COUNT("route.pattern_segments", segments_.size());
  }

  // ---- negotiated rip-up and reroute --------------------------------------

  /// Rebuilds both per-edge cost caches for the current iteration's penalty
  /// and history values. h costs are stored cell-padded (stride nx_) so a
  /// maze relaxation can address all four incident edges from the cell id.
  void rebuild_cost_caches() {
    h_cost_.resize(static_cast<std::size_t>(nx_) * ny_);
    v_cost_.resize(static_cast<std::size_t>(nx_) * ny_);
    for (std::int32_t y = 0; y < ny_; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) * (nx_ - 1);
      double* out = h_cost_.data() + static_cast<std::size_t>(y) * nx_;
      for (std::int32_t x = 0; x + 1 < nx_; ++x)
        out[x] = edge_cost(h_usage_[row + x], cap_h_, h_history_[row + x], penalty_);
    }
    for (std::int32_t y = 0; y + 1 < ny_; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) * nx_;
      for (std::int32_t x = 0; x < nx_; ++x)
        v_cost_[row + x] = edge_cost(v_usage_[row + x], cap_v_, v_history_[row + x], penalty_);
    }
  }

  void rrr_loop(std::uint32_t max_iterations) {
    CALS_TRACE_SCOPE("route.rrr");
    rrr_phase_ = true;
    std::uint64_t best_overflow = UINT64_MAX;
    std::uint32_t stale_iters = 0;
    for (std::uint32_t i = 0; i < max_iterations; ++i) {
      const std::uint64_t overflow = total_overflow_;
      if (overflow == 0) break;
      // Cancellation checkpoint: one relaxed load per iteration — a fired
      // token unwinds mid-route within one rip-up iteration.
      cancel_point(options_.cancel);
      // Cooperative fault point: a kFail injection stops rip-up while
      // overflow remains, forcing a non-converged (Infeasible) result.
      if (CALS_FAULT_POINT("route.ripup")) break;
      // Hopeless-case cutoff: when demand exceeds capacity on average, extra
      // iterations only shuffle the overflow around; stop once progress
      // stalls so structurally-unroutable table rows stay cheap.
      // Near-feasible designs (the interesting region) get the full budget.
      const bool hopeless = overflow > (num_h_ + num_v_) / 2;
      if (overflow < best_overflow - best_overflow / 100) {
        best_overflow = overflow;
        stale_iters = 0;
      } else if (++stale_iters >= (hopeless ? 2u : 6u)) {
        break;
      }
      // The round counter persists across reroute_dirty calls (run() starts
      // it at 0, so the one-shot schedule is untouched): markers stay unique
      // and the penalty/margin escalation resumes instead of restarting.
      const std::uint32_t iter = rounds_++;
      result_.rrr_iterations = iter + 1;
      iter_marker_ = iter + 1;
      penalty_ = options_.present_penalty * (1.0 + iter);
      RouteIterStats stats;
      stats.overflow = overflow;

      // One sweep over the overflowed-edge list: bump history, seed the
      // candidate heap from the crossing lists, compact entries that have
      // dropped back under capacity.
      std::size_t keep = 0;
      for (std::size_t r = 0; r < over_list_.size(); ++r) {
        const std::uint32_t cid = over_list_[r];
        if (!over_flag_[cid]) {
          over_listed_[cid] = 0;
          continue;
        }
        if (cid < num_h_) {
          h_history_[cid] += options_.history_increment;
        } else {
          v_history_[cid - num_h_] += options_.history_increment;
        }
        enqueue_crossers(cid, -1);
        over_list_[keep++] = cid;
      }
      over_list_.resize(keep);
      stats.dirty_edges = static_cast<std::uint32_t>(keep);
      CALS_TRACE_COUNTER("router.overflow", overflow);
      CALS_TRACE_COUNTER("router.dirty_set", cand_heap_.size());

      rebuild_cost_caches();
      const std::int32_t margin = options_.bbox_margin + static_cast<std::int32_t>(2 * iter);

      const std::uint64_t pops_before = maze_pops_;
      drain(stats, margin);
      stats.maze_pops = maze_pops_ - pops_before;
      result_.iter_stats.push_back(stats);
      CALS_OBS_COUNT("route.rrr_iterations", 1);
      CALS_OBS_COUNT("route.rerouted_segments", stats.rerouted);
      CALS_OBS_COUNT("route.maze_pops", stats.maze_pops);
    }
  }

  // ---- rip-up drain --------------------------------------------------------

  /// Pops candidates in ascending order, rips up and maze-reroutes every one
  /// whose path still overflows.
  void drain(RouteIterStats& stats, std::int32_t margin) {
    while (!cand_heap_.empty()) {
      const std::uint32_t seg = pop_candidate();
      ++stats.candidates;
      std::vector<GCell>& path = seg_paths_[seg];
      if (!path_overflows(path)) continue;
      commit_path(path, -1.0, seg);
      maze_route(segments_[seg].a, segments_[seg].b, margin);
      commit_path(reroute_path_, 1.0, seg);
      path.assign(reroute_path_.begin(), reroute_path_.end());
      ++stats.rerouted;
    }
  }

  // ---- maze ---------------------------------------------------------------

  /// Heap key: non-negative IEEE doubles compare like their bit patterns,
  /// and (y<<16)|x orders exactly like the row-major cell index, so one
  /// integer compare of f_bits:yx orders entries by (f, cell index). A cell
  /// is only re-pushed with a strictly smaller distance, so two keys in the
  /// heap are either distinct or identical copies, and any heap pops the
  /// identical key sequence. The cell index is rederived from yx on pop.
  using MazeKey = unsigned __int128;

  static MazeKey maze_key(double f, std::uint32_t yx) {
    return static_cast<MazeKey>(std::bit_cast<std::uint64_t>(f)) << 32 | yx;
  }
  static double key_f(MazeKey key) {
    return std::bit_cast<double>(static_cast<std::uint64_t>(key >> 32));
  }

  /// 4-ary min-heap. Both sifts move a hole rather than swapping, so the
  /// moving key stays in registers and each level costs one store.
  static void heap_push(std::vector<MazeKey>& heap, MazeKey key) {
    std::size_t i = heap.size();
    heap.push_back(key);
    MazeKey* h = heap.data();
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!(key < h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = key;
  }

  static MazeKey heap_pop(std::vector<MazeKey>& heap) {
    const MazeKey top = heap.front();
    const MazeKey key = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    if (n == 0) return top;
    MazeKey* h = heap.data();
    std::size_t i = 0;
    while (true) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + 4, n);
      std::size_t best = first;
      MazeKey least = h[first];
      for (std::size_t c = first + 1; c < last; ++c)
        if (h[c] < least) {
          best = c;
          least = h[c];
        }
      if (!(least < key)) break;
      h[i] = least;
      i = best;
    }
    h[i] = key;
    return top;
  }

  /// Everything one maze search owns: the generation-stamped distance
  /// labels, the open heap and the backtrack buffer. One instance serves
  /// every reroute of the router's lifetime.
  struct MazeScratch {
    std::vector<double> dist;
    std::vector<std::uint32_t> stamp;
    std::uint32_t generation = 0;
    std::vector<MazeKey> heap;
    std::vector<std::int32_t> backtrack;

    explicit MazeScratch(std::size_t cells) : dist(cells, 0.0), stamp(cells, 0) {}
  };

  /// Bounded-box shortest path, bit-identical to the straightforward
  /// Dijkstra + backtrack version but goal-directed (A*). Two observations
  /// make the substitution exact (proof sketch in DESIGN.md §7):
  ///
  ///  - The distance labels Dijkstra settles are algorithm-independent even
  ///    in floating point: dist[v] is the minimum over src→v paths of the
  ///    walk-order (left-associated) sum of edge costs, because FP addition
  ///    of non-negative values is monotone. A* over the same relaxation rule
  ///    converges to the same doubles once every node with f below the
  ///    target's final f has been drained.
  ///  - The reference backtrack pointer from_[v] is a pure function of those
  ///    labels: relaxations fire in ascending (dist, cell) pop order and only
  ///    overwrite on strict improvement, so the recorded predecessor is,
  ///    among neighbors u with dist[u] + w(u,v) == dist[v] exactly, the one
  ///    with the smallest (dist[u], cell index) key — all of which are
  ///    settled (w >= 1 forces dist[u] < dist[v]). We recompute that argmin
  ///    per hop instead of storing pointers.
  ///
  /// The heuristic h(u) = manhattan(u, dst) * 1.0 is admissible and
  /// consistent (every edge costs at least the base 1.0 and h is integral,
  /// hence exact), so the search touches the src–dst cost ellipse instead of
  /// the full cost ball. Writes the path into reroute_path_.
  void maze_route(GCell src, GCell dst, std::int32_t margin) {
    MazeScratch& s = maze_;
    ++s.generation;
    const std::int32_t x_lo = std::max(0, std::min(src.x, dst.x) - margin);
    const std::int32_t x_hi = std::min(nx_ - 1, std::max(src.x, dst.x) + margin);
    const std::int32_t y_lo = std::max(0, std::min(src.y, dst.y) - margin);
    const std::int32_t y_hi = std::min(ny_ - 1, std::max(src.y, dst.y) + margin);

    s.heap.clear();
    const std::int32_t start = src.y * nx_ + src.x;
    s.dist[start] = 0.0;
    s.stamp[start] = s.generation;
    const double h0 = static_cast<double>(std::abs(src.x - dst.x) + std::abs(src.y - dst.y));
    heap_push(s.heap, maze_key(h0, static_cast<std::uint32_t>(src.y) << 16 |
                                       static_cast<std::uint32_t>(src.x)));

    const std::int32_t target = dst.y * nx_ + dst.x;
    const double* h_cost = h_cost_.data();
    const double* v_cost = v_cost_.data();
    std::uint64_t pops = 0;  // register-local; published once at the end
    // f above `bound` is never popped: infinite until the target has a label.
    double bound = std::numeric_limits<double>::infinity();
    while (!s.heap.empty()) {
      if (s.stamp[target] == s.generation) {
        // Drain until nothing in the queue can still carry f at or below the
        // target's distance. The slack is astronomically larger than the one
        // rounding f = dist + h can introduce (<= 2^-52 relative per hop,
        // bounded path length), yet far below the >= 1.0 cost granularity,
        // so exactly the label-correcting frontier Dijkstra would have
        // settled before popping the target is drained — no more.
        const double dt = s.dist[target];
        bound = dt + (dt * 0x1p-30 + 0x1p-30);
        if (key_f(s.heap.front()) > bound) break;
      }
      const MazeKey top = heap_pop(s.heap);
      ++pops;
      const std::uint32_t yx = static_cast<std::uint32_t>(top);
      const std::int32_t ux = static_cast<std::int32_t>(yx & 0xffffu);
      const std::int32_t uy = static_cast<std::int32_t>(yx >> 16);
      const std::int32_t u = uy * nx_ + ux;
      const double hu = static_cast<double>(std::abs(ux - dst.x) + std::abs(uy - dst.y));
      const double d = s.dist[u];
      if (key_f(top) > d + hu) continue;  // stale entry

      // The label always updates (the backtrack reads labels), but an entry
      // whose f already exceeds the bound is never pushed: dt only falls, so
      // the bound does too, and the drain above would stop at that entry
      // before popping it. The popped sequence is unchanged.
      const auto relax = [&](std::int32_t v, std::uint32_t vyx, double w, double hv) {
        const double nd = d + w;
        if (s.stamp[v] != s.generation || nd < s.dist[v]) {
          s.stamp[v] = s.generation;
          s.dist[v] = nd;
          const double f = nd + hv;
          if (f <= bound) heap_push(s.heap, maze_key(f, vyx));
        }
      };
      const double h_left = static_cast<double>(std::abs(ux - 1 - dst.x) + std::abs(uy - dst.y));
      const double h_right = static_cast<double>(std::abs(ux + 1 - dst.x) + std::abs(uy - dst.y));
      const double h_down = static_cast<double>(std::abs(ux - dst.x) + std::abs(uy - 1 - dst.y));
      const double h_up = static_cast<double>(std::abs(ux - dst.x) + std::abs(uy + 1 - dst.y));
      if (ux > x_lo) relax(u - 1, yx - 1, h_cost[u - 1], h_left);
      if (ux < x_hi) relax(u + 1, yx + 1, h_cost[u], h_right);
      if (uy > y_lo) relax(u - nx_, yx - 0x10000u, v_cost[u - nx_], h_down);
      if (uy < y_hi) relax(u + nx_, yx + 0x10000u, v_cost[u], h_up);
    }

    maze_pops_ += pops;
    CALS_CHECK_MSG(s.stamp[target] == s.generation, "maze route failed inside bbox");
    // Label-based backtrack: per hop, pick the predecessor the reference
    // implementation's from_ pointer would hold (see the contract above).
    s.backtrack.clear();
    std::int32_t v = target;
    s.backtrack.push_back(v);
    while (v != start) {
      const std::int32_t vx = v % nx_;
      const std::int32_t vy = v / nx_;
      const double dv = s.dist[v];
      std::int32_t best = -1;
      double best_d = 0.0;
      const auto consider = [&](std::int32_t u, double w) {
        if (s.stamp[u] != s.generation || s.dist[u] + w != dv) return;
        // Candidates are scanned in ascending cell index, so a strict
        // distance test reproduces the (dist, cell) tie-break.
        if (best == -1 || s.dist[u] < best_d) {
          best = u;
          best_d = s.dist[u];
        }
      };
      if (vy > y_lo) consider(v - nx_, v_cost[v - nx_]);
      if (vx > x_lo) consider(v - 1, h_cost[v - 1]);
      if (vx < x_hi) consider(v + 1, h_cost[v]);
      if (vy < y_hi) consider(v + nx_, v_cost[v]);
      CALS_CHECK_MSG(best != -1, "maze backtrack lost the predecessor chain");
      s.backtrack.push_back(best);
      v = best;
    }
    reroute_path_.clear();
    reroute_path_.reserve(s.backtrack.size());
    for (std::size_t i = s.backtrack.size(); i-- > 0;)
      reroute_path_.push_back({s.backtrack[i] % nx_, s.backtrack[i] / nx_});
  }

  // ---- wrap-up ------------------------------------------------------------
  /// Assembles the caller-facing result from the per-segment path store and
  /// the grid. Re-callable: each reroute_dirty() refreshes the totals and
  /// net paths so result() is always the current solution.
  void finish() {
    result_.total_overflow = grid_.total_overflow();
    CALS_CHECK(result_.total_overflow == total_overflow_);
    result_.overflowed_edges = grid_.overflowed_edges();
    result_.nets.assign(graph_.nets.size(), RoutedNet{});
    result_.wirelength_gcells = 0;
    for (std::size_t n = 0; n < graph_.nets.size(); ++n) {
      RoutedNet& routed = result_.nets[n];
      routed.paths.reserve(net_segs_[n].size());
      for (std::uint32_t s : net_segs_[n]) {
        if (seg_paths_[s].empty()) continue;
        routed.paths.push_back(seg_paths_[s]);
        routed.length += seg_paths_[s].size() - 1;
      }
      result_.wirelength_gcells += routed.length;
    }
    result_.gcell_um = grid_.gcell_um();
    result_.wirelength_um = static_cast<double>(result_.wirelength_gcells) * grid_.gcell_um();
  }

  RoutingGrid& grid_;
  const PlaceGraph& graph_;
  const RouteOptions options_;
  RouteResult result_;
  const std::int32_t nx_, ny_;
  const std::size_t num_h_, num_v_;
  const double cap_h_, cap_v_;
  double* const h_usage_;
  double* const v_usage_;
  double* const h_history_;
  double* const v_history_;

  // Flattened topology: the initial build lays segments out in ascending
  // (net, segment) order; invalidate_nets appends replacements at the end.
  // net_segs_[n] lists net n's live segment ids (ascending); seg_paths_ is
  // the per-segment path store result_.nets is assembled from in finish().
  std::vector<Segment> segments_;
  std::vector<std::uint32_t> seg_net_;
  std::vector<std::vector<std::uint32_t>> net_segs_;
  std::vector<std::vector<GCell>> seg_paths_;
  std::vector<std::uint32_t> pending_segs_;  ///< invalidated, awaiting reroute
  std::uint32_t rounds_ = 0;  ///< rip-up rounds run across the whole session

  // Overflow tracker (exact: contributions are integral).
  std::uint64_t total_overflow_ = 0;
  std::vector<std::uint8_t> over_flag_;    ///< usage > capacity, per combined edge
  std::vector<std::uint8_t> over_listed_;  ///< membership in over_list_
  std::vector<std::uint32_t> over_list_;   ///< edges that have overflowed (lazily compacted)

  // Dirty-set machinery.
  std::vector<std::vector<std::uint32_t>> cross_;  ///< edge -> crossing segments (append-only)
  std::vector<std::uint32_t> seg_stamp_;           ///< per-iteration enqueue dedupe
  std::vector<std::uint32_t> edge_stamp_;          ///< round of each edge's last sweep
  std::vector<std::uint32_t> cand_heap_;           ///< min-heap of candidate segment ids
  std::uint32_t iter_marker_ = 0;

  // Rip-up phase cost caches (h cell-padded to stride nx_).
  bool rrr_phase_ = false;
  double penalty_ = 0.0;
  std::vector<double> h_cost_, v_cost_;

  // Maze state, pooled across all reroutes of the session (generation-stamped,
  // so never cleared between searches).
  MazeScratch maze_;
  std::vector<GCell> reroute_path_;
  std::uint64_t maze_pops_ = 0;  ///< lifetime A* pops, differenced per iteration
};

Router::Router(RoutingGrid& grid, const PlaceGraph& graph, const Placement& placement,
               const RouteOptions& options, ThreadPool*)
    : impl_(std::make_unique<Impl>(grid, graph, placement, options)) {}

Router::~Router() = default;
Router::Router(Router&&) noexcept = default;
Router& Router::operator=(Router&&) noexcept = default;

void Router::run() { impl_->run(); }

void Router::invalidate_nets(const std::vector<std::uint32_t>& nets,
                             const Placement& placement) {
  impl_->invalidate_nets(nets, placement);
}

void Router::reroute_dirty(std::uint32_t max_iterations) {
  impl_->reroute_dirty(max_iterations);
}

const RouteResult& Router::result() const { return impl_->result(); }

RouteResult Router::take() { return std::move(impl_->result()); }

RouteResult route(RoutingGrid& grid, const PlaceGraph& graph, const Placement& placement,
                  const RouteOptions& options, ThreadPool*) {
  Router router(grid, graph, placement, options);
  router.run();
  return router.take();
}

}  // namespace cals
