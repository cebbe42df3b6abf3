#include "place/partition_place.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/check.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"

namespace cals {
namespace {

/// Object -> incident nets and net -> pins, both CSR. An object listed twice
/// in one net appears twice in both; in its incidence list the repeats are
/// adjacent, since the list is ascending by net.
struct Incidence {
  std::vector<std::uint32_t> offset;
  std::vector<std::uint32_t> data;
  std::vector<std::uint32_t> net_offset;
  std::vector<std::uint32_t> net_pins;

  explicit Incidence(const PlaceGraph& graph) {
    offset.assign(graph.num_objects + 1, 0);
    net_offset.assign(graph.nets.size() + 1, 0);
    for (std::uint32_t n = 0; n < graph.nets.size(); ++n) {
      const std::vector<std::uint32_t>& pins = graph.nets[n].pins;
      net_offset[n + 1] = net_offset[n] + static_cast<std::uint32_t>(pins.size());
      for (std::uint32_t p : pins) ++offset[p + 1];
    }
    for (std::uint32_t i = 0; i < graph.num_objects; ++i) offset[i + 1] += offset[i];
    data.assign(offset.back(), 0);
    net_pins.reserve(net_offset.back());
    std::vector<std::uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (std::uint32_t n = 0; n < graph.nets.size(); ++n) {
      for (std::uint32_t p : graph.nets[n].pins) {
        data[cursor[p]++] = n;
        net_pins.push_back(p);
      }
    }
  }
};

/// A rectangle and its movable objects: the range [begin, end) of the object
/// order that global_place() keeps partitioned by region.
struct Region {
  Rect rect;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// Fiduccia–Mattheyses bisection with gain buckets and terminal propagation.
/// Every array is a member reused across bisections, so a bisection
/// allocates nothing once the arrays have grown to the largest region.
class Bisector {
 public:
  Bisector(const PlaceGraph& graph, const Incidence& incidence,
           const std::vector<Point>& pos, const PlaceOptions& options)
      : graph_(graph),
        incidence_(incidence),
        pos_(pos),
        options_(options),
        obj_local_(graph.num_objects, UINT32_MAX),
        net_local_(graph.nets.size(), UINT32_MAX) {}

  /// Partitions `objects` into sides 0/1 across a cut of their region along
  /// `axis_x` (true: vertical cut at x=mid, side 0 = low x). Draws one value
  /// from `rng` to seed the initial BFS cluster. Returns the side of each
  /// object, valid until the next call.
  const std::vector<std::uint8_t>& run(std::span<const std::uint32_t> objects, bool axis_x,
                                       double mid, Rng& rng) {
    init_locals(objects, axis_x, mid);
    init_partition(rng);
    CALS_OBS_COUNT("place.bisections", 1);
    for (std::uint32_t pass = 0; pass < options_.fm_passes; ++pass) {
      CALS_OBS_COUNT("place.fm_passes", 1);
      if (!fm_pass()) break;
    }
    clear_locals(objects);
    return side_;
  }

 private:
  struct NetState {
    std::uint32_t ext[2];    // external pins per side (anchors)
    std::uint32_t count[2];  // local pins per side (dynamic)
  };

  /// Local pins of local net `net`: ascending, duplicate-free.
  std::span<const std::uint32_t> pins(std::uint32_t net) const {
    return {net_pins_.data() + net_begin_[net], net_pins_.data() + net_begin_[net + 1]};
  }
  /// Local nets of local object `v`, in global incidence order with repeats.
  std::span<const std::uint32_t> nets_of(std::uint32_t v) const {
    return {inc_.data() + inc_begin_[v], inc_.data() + inc_begin_[v + 1]};
  }

  /// Numbers the region's objects by their position in `objects` and its
  /// nets in first-touch order, then builds the local incidence, the local
  /// net pins and each net's external pins per side.
  void init_locals(std::span<const std::uint32_t> objects, bool axis_x, double mid) {
    const auto n = static_cast<std::uint32_t>(objects.size());
    for (std::uint32_t i = 0; i < n; ++i) obj_local_[objects[i]] = i;

    touched_nets_.clear();
    net_begin_.assign(1, 0);
    net_state_.clear();
    inc_.clear();
    inc_begin_.resize(n + 1);
    area_.resize(n);
    total_area_ = 0.0;
    min_area_ = INFINITY;
    max_degree_ = 1;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t obj = objects[i];
      const std::uint32_t first = incidence_.offset[obj];
      const std::uint32_t last = incidence_.offset[obj + 1];
      inc_begin_[i] = static_cast<std::uint32_t>(inc_.size());
      for (std::uint32_t ni = first; ni < last; ++ni) {
        const std::uint32_t net = incidence_.data[ni];
        if (net_local_[net] == UINT32_MAX) add_net(net, axis_x, mid);
        const std::uint32_t local = net_local_[net];
        inc_.push_back(local);
        // Count each object once per net (net_begin_ holds counts here).
        if (ni == first || incidence_.data[ni - 1] != net) ++net_begin_[local + 1];
      }
      max_degree_ = std::max(max_degree_, last - first);
      area_[i] = std::max(graph_.width[obj], 1e-9);
      total_area_ += area_[i];
      min_area_ = std::min(min_area_, area_[i]);
    }
    inc_begin_[n] = static_cast<std::uint32_t>(inc_.size());

    // Counts -> CSR. Appending objects in local order, once per net, keeps
    // every pin list ascending and duplicate-free. The fill advances each
    // net_begin_[net] to its end; the shift restores the starts.
    const auto num_nets = static_cast<std::uint32_t>(touched_nets_.size());
    for (std::uint32_t net = 0; net < num_nets; ++net) net_begin_[net + 1] += net_begin_[net];
    net_pins_.resize(net_begin_[num_nets]);
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t k = inc_begin_[i]; k < inc_begin_[i + 1]; ++k)
        if (k == inc_begin_[i] || inc_[k - 1] != inc_[k]) net_pins_[net_begin_[inc_[k]]++] = i;
    }
    for (std::uint32_t net = num_nets; net > 0; --net) net_begin_[net] = net_begin_[net - 1];
    net_begin_[0] = 0;
    side_.assign(n, 1);  // init_partition grows side 0 out of side 1
  }

  /// Gives global net `net` the next local id and counts its pins outside
  /// the region per side of the cut.
  void add_net(std::uint32_t net, bool axis_x, double mid) {
    net_local_[net] = static_cast<std::uint32_t>(touched_nets_.size());
    touched_nets_.push_back(net);
    net_begin_.push_back(0);
    NetState state{{0, 0}, {0, 0}};
    for (std::uint32_t p = incidence_.net_offset[net]; p < incidence_.net_offset[net + 1]; ++p) {
      const std::uint32_t pin = incidence_.net_pins[p];
      if (obj_local_[pin] != UINT32_MAX) continue;
      const double c = axis_x ? pos_[pin].x : pos_[pin].y;
      ++state.ext[c < mid ? 0 : 1];
    }
    net_state_.push_back(state);
  }

  void clear_locals(std::span<const std::uint32_t> objects) {
    for (std::uint32_t obj : objects) obj_local_[obj] = UINT32_MAX;
    for (std::uint32_t net : touched_nets_) net_local_[net] = UINT32_MAX;
  }

  /// BFS-clustered initial partition: grow side 0 from a seed until it holds
  /// half the area, so FM starts from a connected cluster.
  void init_partition(Rng& rng) {
    const auto n = static_cast<std::uint32_t>(side_.size());
    visited_.assign(n, 0);
    queue_.clear();
    std::size_t head = 0;
    double area0 = 0.0;
    const double target = total_area_ * 0.5;
    auto scan = static_cast<std::uint32_t>(rng.below(std::max(1u, n)));
    std::uint32_t wrapped = 0;
    while (area0 < target && wrapped < 2) {
      if (head == queue_.size()) {
        while (scan < n && visited_[scan]) ++scan;
        if (scan >= n) {
          scan = 0;
          ++wrapped;
          continue;
        }
        queue_.push_back(scan);
        visited_[scan] = 1;
      }
      const std::uint32_t v = queue_[head++];
      side_[v] = 0;
      area0 += area_[v];
      for (std::uint32_t net : nets_of(v)) {
        for (std::uint32_t w : pins(net)) {
          if (!visited_[w]) {
            visited_[w] = 1;
            queue_.push_back(w);
          }
        }
      }
    }
    for (std::uint32_t net = 0; net < net_state_.size(); ++net) {
      NetState& state = net_state_[net];
      state.count[0] = state.count[1] = 0;
      for (std::uint32_t v : pins(net)) ++state.count[side_[v]];
    }
  }

  // ---- gain bucket machinery -------------------------------------------
  // buckets are per from-side arrays of doubly-linked lists over vertices.
  std::uint32_t bucket_index(std::int32_t g) const {
    return static_cast<std::uint32_t>(g + static_cast<std::int32_t>(max_degree_));
  }

  void bucket_insert(std::uint32_t v) {
    const std::uint8_t s = side_[v];
    const std::uint32_t b = bucket_index(gain_[v]);
    next_[v] = bucket_head_[s][b];
    prev_[v] = UINT32_MAX;
    if (next_[v] != UINT32_MAX) prev_[next_[v]] = v;
    bucket_head_[s][b] = v;
    max_bucket_[s] = std::max(max_bucket_[s], b);
  }

  void bucket_remove(std::uint32_t v) {
    const std::uint8_t s = side_[v];
    const std::uint32_t b = bucket_index(gain_[v]);
    if (prev_[v] != UINT32_MAX) next_[prev_[v]] = next_[v];
    else bucket_head_[s][b] = next_[v];
    if (next_[v] != UINT32_MAX) prev_[next_[v]] = prev_[v];
  }

  void gain_update(std::uint32_t v, std::int32_t delta) {
    if (locked_[v] || delta == 0) return;
    bucket_remove(v);
    gain_[v] += delta;
    bucket_insert(v);
  }

  std::int32_t compute_gain(std::uint32_t v) const {
    std::int32_t g = 0;
    const std::uint8_t from = side_[v];
    const std::uint8_t to = 1 - from;
    for (std::uint32_t net : nets_of(v)) {
      const NetState& state = net_state_[net];
      if (state.count[from] + state.ext[from] == 1) ++g;
      if (state.count[to] + state.ext[to] == 0) --g;
    }
    return g;
  }

  /// One FM pass; returns true if it improved the cut.
  bool fm_pass() {
    const auto n = static_cast<std::uint32_t>(side_.size());
    if (n < 2) return false;

    double area0 = 0.0;
    for (std::uint32_t v = 0; v < n; ++v)
      if (side_[v] == 0) area0 += area_[v];
    const double lo = total_area_ * (0.5 - options_.balance_tolerance);
    const double hi = total_area_ * (0.5 + options_.balance_tolerance);

    const std::uint32_t num_buckets = 2 * max_degree_ + 1;
    for (int s = 0; s < 2; ++s) {
      bucket_head_[s].assign(num_buckets, UINT32_MAX);
      max_bucket_[s] = 0;
    }
    next_.resize(n);  // bucket_insert sets next_/prev_ of every vertex
    prev_.resize(n);
    locked_.assign(n, 0);
    gain_.resize(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      gain_[v] = compute_gain(v);
      bucket_insert(v);
    }

    sequence_.clear();
    std::int64_t best_prefix_gain = 0;
    std::int64_t running = 0;
    std::size_t best_prefix = 0;
    std::uint32_t stale = 0;  // moves since the best prefix

    for (std::uint32_t step = 0; step < n; ++step) {
      // Select the best-gain movable vertex over both sides that respects
      // the balance constraint. Skipping a side whose smallest object would
      // break the balance, and the empty buckets on top of a side, cannot
      // change the pick.
      std::uint32_t chosen = UINT32_MAX;
      std::int32_t chosen_gain = INT32_MIN;
      for (int s = 0; s < 2; ++s) {
        if (s == 0 ? area0 - min_area_ < lo : area0 + min_area_ > hi) continue;
        while (max_bucket_[s] > 0 && bucket_head_[s][max_bucket_[s]] == UINT32_MAX)
          --max_bucket_[s];
        for (std::uint32_t b = max_bucket_[s] + 1; b-- > 0;) {
          const auto g =
              static_cast<std::int32_t>(b) - static_cast<std::int32_t>(max_degree_);
          if (g <= chosen_gain) break;  // lower buckets cannot beat the pick
          bool found = false;
          int walked = 0;
          for (std::uint32_t v = bucket_head_[s][b]; v != UINT32_MAX && walked < 8;
               v = next_[v], ++walked) {
            const double new_area0 =
                side_[v] == 0 ? area0 - area_[v] : area0 + area_[v];
            if (new_area0 >= lo && new_area0 <= hi) {
              chosen = v;
              chosen_gain = g;
              found = true;
              break;
            }
          }
          if (found) break;
        }
      }
      if (chosen == UINT32_MAX) break;
      if (chosen_gain < 0 && stale > n / 8) break;  // cheap cutoff

      const std::uint32_t v = chosen;
      const std::uint8_t from = side_[v];
      const std::uint8_t to = 1 - from;
      bucket_remove(v);
      locked_[v] = 1;
      area0 += (from == 0) ? -area_[v] : area_[v];

      for (std::uint32_t net : nets_of(v)) {
        NetState& state = net_state_[net];
        const std::uint32_t to_total = state.count[to] + state.ext[to];
        if (to_total == 0) {
          for (std::uint32_t w : pins(net)) gain_update(w, +1);
        } else if (to_total == 1) {
          for (std::uint32_t w : pins(net))
            if (side_[w] == to) gain_update(w, -1);
        }
        --state.count[from];
        ++state.count[to];
        const std::uint32_t from_after = state.count[from] + state.ext[from];
        if (from_after == 0) {
          for (std::uint32_t w : pins(net)) gain_update(w, -1);
        } else if (from_after == 1) {
          for (std::uint32_t w : pins(net))
            if (side_[w] == from) gain_update(w, +1);
        }
      }
      side_[v] = to;
      sequence_.push_back(v);
      running += chosen_gain;
      if (running > best_prefix_gain) {
        best_prefix_gain = running;
        best_prefix = sequence_.size();
        stale = 0;
      } else {
        ++stale;
      }
    }

    // Roll back moves after the best prefix.
    for (std::size_t i = sequence_.size(); i > best_prefix; --i) {
      const std::uint32_t v = sequence_[i - 1];
      const std::uint8_t from = side_[v];
      const std::uint8_t to = 1 - from;
      for (std::uint32_t net : nets_of(v)) {
        --net_state_[net].count[from];
        ++net_state_[net].count[to];
      }
      side_[v] = to;
    }
    return best_prefix_gain > 0;
  }

  const PlaceGraph& graph_;
  const Incidence& incidence_;
  const std::vector<Point>& pos_;
  const PlaceOptions& options_;

  // Global id -> local id, UINT32_MAX outside the current bisection.
  std::vector<std::uint32_t> obj_local_;
  std::vector<std::uint32_t> net_local_;

  // Local nets (CSR over local object ids) and the local incidence (CSR over
  // local net ids).
  std::vector<std::uint32_t> touched_nets_;  // local net -> global net
  std::vector<std::uint32_t> net_begin_;
  std::vector<std::uint32_t> net_pins_;
  std::vector<NetState> net_state_;
  std::vector<std::uint32_t> inc_begin_;
  std::vector<std::uint32_t> inc_;

  std::vector<double> area_;
  std::uint32_t max_degree_ = 1;
  std::vector<std::uint8_t> side_;
  double total_area_ = 0.0;
  double min_area_ = 0.0;

  // BFS state
  std::vector<std::uint8_t> visited_;
  std::vector<std::uint32_t> queue_;

  // FM pass state
  std::vector<std::int32_t> gain_;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> prev_;
  std::vector<std::uint8_t> locked_;
  std::vector<std::uint32_t> sequence_;
  std::vector<std::uint32_t> bucket_head_[2];
  std::uint32_t max_bucket_[2] = {0, 0};
};

/// Spreads terminal-region objects on a small grid inside `rect`.
void spread_in_region(const Rect& rect, std::span<const std::uint32_t> objects,
                      std::vector<Point>& pos) {
  const std::size_t n = objects.size();
  if (n == 0) return;
  const auto k = static_cast<std::uint32_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t gx = static_cast<std::uint32_t>(i) % k;
    const std::uint32_t gy = static_cast<std::uint32_t>(i) / k;
    pos[objects[i]] = {rect.lo.x + (gx + 0.5) * rect.width() / k,
                       rect.lo.y + (gy + 0.5) * rect.height() / k};
  }
}

}  // namespace

Placement global_place(const PlaceGraph& graph, const Floorplan& floorplan,
                       const PlaceOptions& options, ThreadPool*) {
  graph.validate();
  CALS_TRACE_SCOPE_ARG("place.global", "objects", graph.num_objects);
  Placement result;
  result.pos.assign(graph.num_objects, floorplan.die().center());
  for (std::uint32_t i = 0; i < graph.num_objects; ++i)
    if (graph.fixed[i]) result.pos[i] = graph.fixed_pos[i];

  Incidence incidence(graph);
  Bisector bisector(graph, incidence, result.pos, options);
  Rng rng(options.seed);

  // The movable objects, kept partitioned so that every region is a range.
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < graph.num_objects; ++i)
    if (!graph.fixed[i]) order.push_back(i);
  std::vector<std::uint32_t> spill;  // side-1 objects of the range being split
  // FIFO of regions: work[head] is next.
  std::vector<Region> work{{floorplan.die(), 0, static_cast<std::uint32_t>(order.size())}};

  const double min_dim = std::min(floorplan.row_height(), floorplan.site_width() * 4);
  for (std::size_t head = 0; head < work.size(); ++head) {
    const Region region = work[head];  // a copy: push_back below may reallocate
    const std::span<std::uint32_t> objects(order.data() + region.begin,
                                           region.end - region.begin);
    if (objects.size() <= options.min_bin_objects ||
        (region.rect.width() <= min_dim && region.rect.height() <= min_dim)) {
      spread_in_region(region.rect, objects, result.pos);
      continue;
    }
    // Cancellation checkpoint once per bisection.
    cancel_point(options.cancel);
    const bool axis_x = region.rect.width() >= region.rect.height();
    const double mid = axis_x ? (region.rect.lo.x + region.rect.hi.x) * 0.5
                              : (region.rect.lo.y + region.rect.hi.y) * 0.5;
    const std::vector<std::uint8_t>& side = bisector.run(objects, axis_x, mid, rng);

    Rect rect0 = region.rect;
    Rect rect1 = region.rect;
    if (axis_x) {
      rect0.hi.x = mid;
      rect1.lo.x = mid;
    } else {
      rect0.hi.y = mid;
      rect1.lo.y = mid;
    }
    // Stable split in place: side-0 objects move down (never past the one
    // being read), side-1 objects go through `spill` to the back.
    spill.clear();
    std::uint32_t split = region.begin;
    for (std::size_t i = 0; i < objects.size(); ++i) {
      const std::uint32_t obj = objects[i];
      if (side[i] == 0) {
        order[split++] = obj;
        result.pos[obj] = rect0.center();
      } else {
        spill.push_back(obj);
        result.pos[obj] = rect1.center();
      }
    }
    std::copy(spill.begin(), spill.end(), order.begin() + split);
    if (split > region.begin) work.push_back({rect0, region.begin, split});
    if (split < region.end) work.push_back({rect1, split, region.end});
  }
  return result;
}

}  // namespace cals
