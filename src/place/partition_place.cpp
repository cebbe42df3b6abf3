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
/// Every array is a member sized once for the whole graph, so a bisection
/// allocates nothing.
class Bisector {
 public:
  Bisector(const PlaceGraph& graph, const Incidence& incidence,
           const std::vector<Point>& pos, const PlaceOptions& options)
      : graph_(graph),
        incidence_(incidence),
        pos_(pos),
        options_(options),
        net_local_(graph.nets.size(), UINT32_MAX),
        touched_nets_(graph.nets.size()),
        net_state_(graph.nets.size()),
        net_pins_(incidence.data.size()),
        inc_begin_(graph.num_objects + 1),
        inc_(incidence.data.size()),
        area_(graph.num_objects),
        vertex_(graph.num_objects),
        queue_(graph.num_objects) {}

  /// Partitions `objects` into sides 0/1 across a cut of their region along
  /// `axis_x` (true: vertical cut at x=mid, side 0 = low x). Every object
  /// must sit at its region's center, so on the cut line. Draws one value
  /// from `rng` to seed the initial BFS cluster. side(i) then holds the side
  /// of objects[i], until the next call.
  void run(std::span<const std::uint32_t> objects, bool axis_x, double mid, Rng& rng) {
    init_locals(objects);
    count_external(axis_x, mid);
    init_partition(rng);
    CALS_OBS_COUNT("place.bisections", 1);
    for (std::uint32_t pass = 0; pass < options_.fm_passes; ++pass) {
      CALS_OBS_COUNT("place.fm_passes", 1);
      if (!fm_pass()) break;
    }
    for (std::uint32_t net = 0; net < num_nets_; ++net) net_local_[touched_nets_[net]] = UINT32_MAX;
  }

  std::uint8_t side(std::uint32_t v) const { return vertex_[v].side; }

 private:
  struct NetState {
    std::uint32_t ext[2];    // external pins per side (anchors)
    std::uint32_t count[2];  // local pins per side (dynamic)
    std::uint32_t begin;     // local pins: net_pins_[begin, end)
    std::uint32_t end;
    std::uint32_t listings;  // local listings, repeats included
    // A local object lists this net twice. Each move of it shifts count[]
    // once per listing, so the counts drift (and may wrap): such a net keeps
    // exact external counts and full pin scans.
    bool repeated;
    bool expanded;  // BFS: pins already queued
  };
  struct Vertex {
    std::int32_t gain;
    std::uint32_t next;  // gain bucket list
    std::uint32_t prev;
    std::uint8_t side;
    std::uint8_t locked;
    std::uint8_t visited;  // BFS: queued
  };

  /// Local pins of a local net: ascending, duplicate-free.
  std::span<const std::uint32_t> pins(const NetState& state) const {
    return {net_pins_.data() + state.begin, net_pins_.data() + state.end};
  }
  /// Local nets of local object `v`, in global incidence order with repeats.
  std::span<const std::uint32_t> nets_of(std::uint32_t v) const {
    return {inc_.data() + inc_begin_[v], inc_.data() + inc_begin_[v + 1]};
  }

  /// Numbers the region's objects by their position in `objects` and its
  /// nets in first-touch order, then builds the local incidence and the
  /// local net pins.
  void init_locals(std::span<const std::uint32_t> objects) {
    n_ = static_cast<std::uint32_t>(objects.size());
    const std::uint32_t* offset = incidence_.offset.data();
    const std::uint32_t* data = incidence_.data.data();
    std::uint32_t* inc = inc_.data();
    NetState* states = net_state_.data();
    std::uint32_t k = 0;
    std::uint32_t num_nets = 0;
    total_area_ = 0.0;
    min_area_ = INFINITY;
    max_degree_ = 1;
    for (std::uint32_t i = 0; i < n_; ++i) {
      const std::uint32_t obj = objects[i];
      const std::uint32_t first = offset[obj];
      const std::uint32_t last = offset[obj + 1];
      inc_begin_[i] = k;
      std::uint32_t previous = UINT32_MAX;
      for (std::uint32_t ni = first; ni < last; ++ni) {
        const std::uint32_t net = data[ni];
        std::uint32_t local = net_local_[net];
        if (local == UINT32_MAX) {
          local = net_local_[net] = num_nets++;
          touched_nets_[local] = net;
          states[local] = {{0, 0}, {0, 0}, 0, 0, 0, false, false};
        }
        inc[k++] = local;
        NetState& state = states[local];
        ++state.listings;
        // Count each object once per net (`end` holds counts here); its
        // repeats are adjacent, as its incidence is ascending by net.
        if (net == previous) state.repeated = true;
        else ++state.end;
        previous = net;
      }
      max_degree_ = std::max(max_degree_, last - first);
      area_[i] = std::max(graph_.width[obj], 1e-9);
      total_area_ += area_[i];
      min_area_ = std::min(min_area_, area_[i]);
    }
    inc_begin_[n_] = k;
    num_nets_ = num_nets;

    // Counts -> CSR. Appending objects in local order, once per net, keeps
    // every pin list ascending and duplicate-free.
    std::uint32_t start = 0;
    for (std::uint32_t net = 0; net < num_nets; ++net) {
      NetState& state = states[net];
      state.begin = start;
      start += state.end;
      state.end = state.begin;
    }
    for (std::uint32_t i = 0; i < n_; ++i) {
      std::uint32_t previous = UINT32_MAX;
      for (std::uint32_t j = inc_begin_[i]; j < inc_begin_[i + 1]; ++j) {
        if (inc[j] != previous) net_pins_[states[inc[j]].end++] = i;
        previous = inc[j];
      }
      vertex_[i].side = 1;  // init_partition grows side 0 out of side 1
      vertex_[i].visited = 0;
    }
  }

  /// Counts each net's pins outside the region per side of the cut. Every
  /// local object sits at its region's center, which is on the cut line
  /// (`mid` and Rect::center() are the same (lo + hi) * 0.5), so none counts
  /// below `mid`: ext[0] is the listings below it, and ext[1] the rest minus
  /// the local listings. On a net whose counts stay exact, FM only asks
  /// whether a side's total is 0 or 1, so two external pins answer it as
  /// well as any larger number: the scan stops at two on each side.
  void count_external(bool axis_x, double mid) {
    for (std::uint32_t local = 0; local < num_nets_; ++local) {
      NetState& state = net_state_[local];
      const std::uint32_t net = touched_nets_[local];
      const std::uint32_t first = incidence_.net_offset[net];
      const std::uint32_t last = incidence_.net_offset[net + 1];
      const std::uint32_t external = last - first - state.listings;
      if (external == 0) continue;
      // Pins at or above `mid` include the local listings.
      const std::uint32_t enough_above = state.repeated ? UINT32_MAX : state.listings + 2;
      std::uint32_t below = 0;
      std::uint32_t p = first;
      for (; p < last; ++p) {
        const Point& at = pos_[incidence_.net_pins[p]];
        below += (axis_x ? at.x : at.y) < mid;
        if (below >= 2 && p + 1 - first - below >= enough_above) break;
      }
      if (p < last) {
        state.ext[0] = state.ext[1] = 2;
      } else {
        state.ext[0] = below;
        state.ext[1] = external - below;
      }
    }
  }

  /// BFS-clustered initial partition: grow side 0 from a seed until it holds
  /// half the area, so FM starts from a connected cluster. Expanding a net
  /// queues all its pins, so each net is expanded once. Each net's side-0
  /// count is taken from the incidence of the objects put on side 0.
  void init_partition(Rng& rng) {
    const std::uint32_t n = n_;
    std::uint32_t* queue = queue_.data();
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    double area0 = 0.0;
    const double target = total_area_ * 0.5;
    auto scan = static_cast<std::uint32_t>(rng.below(std::max(1u, n)));
    std::uint32_t wrapped = 0;
    while (area0 < target && wrapped < 2) {
      if (head == tail) {
        while (scan < n && vertex_[scan].visited) ++scan;
        if (scan >= n) {
          scan = 0;
          ++wrapped;
          continue;
        }
        queue[tail++] = scan;
        vertex_[scan].visited = 1;
      }
      const std::uint32_t v = queue[head++];
      vertex_[v].side = 0;
      area0 += area_[v];
      std::uint32_t previous = UINT32_MAX;
      for (std::uint32_t net : nets_of(v)) {
        NetState& state = net_state_[net];
        if (net != previous) ++state.count[0];
        previous = net;
        if (state.expanded) continue;
        state.expanded = true;
        for (std::uint32_t w : pins(state)) {
          if (!vertex_[w].visited) {
            vertex_[w].visited = 1;
            queue[tail++] = w;
          }
        }
      }
    }
    for (std::uint32_t net = 0; net < num_nets_; ++net) {
      NetState& state = net_state_[net];
      state.count[1] = state.end - state.begin - state.count[0];
    }
  }

  // ---- gain bucket machinery -------------------------------------------
  // buckets are per from-side arrays of doubly-linked lists over vertices.
  std::uint32_t bucket_index(std::int32_t g) const {
    return static_cast<std::uint32_t>(g + static_cast<std::int32_t>(max_degree_));
  }

  void bucket_insert(std::uint32_t v) {
    Vertex& x = vertex_[v];
    const std::uint32_t b = bucket_index(x.gain);
    x.next = bucket_head_[x.side][b];
    x.prev = UINT32_MAX;
    if (x.next != UINT32_MAX) vertex_[x.next].prev = v;
    bucket_head_[x.side][b] = v;
    max_bucket_[x.side] = std::max(max_bucket_[x.side], b);
  }

  void bucket_remove(std::uint32_t v) {
    const Vertex& x = vertex_[v];
    if (x.prev != UINT32_MAX) vertex_[x.prev].next = x.next;
    else bucket_head_[x.side][bucket_index(x.gain)] = x.next;
    if (x.next != UINT32_MAX) vertex_[x.next].prev = x.prev;
  }

  void gain_update(std::uint32_t v, std::int32_t delta) {
    if (vertex_[v].locked) return;
    bucket_remove(v);
    vertex_[v].gain += delta;
    bucket_insert(v);
  }

  std::int32_t compute_gain(std::uint32_t v) const {
    std::int32_t g = 0;
    const std::uint8_t from = vertex_[v].side;
    const std::uint8_t to = 1 - from;
    for (std::uint32_t net : nets_of(v)) {
      const NetState& state = net_state_[net];
      if (state.count[from] + state.ext[from] == 1) ++g;
      if (state.count[to] + state.ext[to] == 0) --g;
    }
    return g;
  }

  /// Gain updates of one move's net on the side that held `side_total` pins
  /// before the move (`to` side, delta -1) or holds it after (`from` side,
  /// delta +1; `v` still reads `from` and is locked). Unless the net is
  /// `repeated`, its counts are exact: at a total of 1 the one pin to update
  /// is the side's lone local pin, and none if the lone pin is external.
  void update_side(const NetState& state, std::uint32_t side_total, std::uint8_t side,
                   std::uint32_t v, std::int32_t delta) {
    if (side_total == 0) {
      for (std::uint32_t w : pins(state)) gain_update(w, -delta);
    } else if (side_total == 1) {
      if (state.repeated) {
        for (std::uint32_t w : pins(state))
          if (vertex_[w].side == side) gain_update(w, delta);
      } else if (state.count[side] == 1) {
        for (std::uint32_t w : pins(state)) {
          if (w != v && vertex_[w].side == side) {
            gain_update(w, delta);
            break;
          }
        }
      }
    }
  }

  /// One FM pass; returns true if it improved the cut.
  bool fm_pass() {
    const std::uint32_t n = n_;
    if (n < 2) return false;

    const std::uint32_t num_buckets = 2 * max_degree_ + 1;
    for (int s = 0; s < 2; ++s) {
      bucket_head_[s].assign(num_buckets, UINT32_MAX);
      max_bucket_[s] = 0;
    }
    // Re-summed left to right each pass: a sum carried over from the last
    // pass's moves and rollback rounds differently.
    double area0 = 0.0;
    for (std::uint32_t v = 0; v < n; ++v) {
      Vertex& x = vertex_[v];
      if (x.side == 0) area0 += area_[v];
      x.gain = compute_gain(v);
      x.locked = 0;
      bucket_insert(v);
    }
    const double lo = total_area_ * (0.5 - options_.balance_tolerance);
    const double hi = total_area_ * (0.5 + options_.balance_tolerance);

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
               v = vertex_[v].next, ++walked) {
            const double new_area0 = s == 0 ? area0 - area_[v] : area0 + area_[v];
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
      const std::uint8_t from = vertex_[v].side;
      const std::uint8_t to = 1 - from;
      bucket_remove(v);
      vertex_[v].locked = 1;
      area0 += (from == 0) ? -area_[v] : area_[v];

      for (std::uint32_t net : nets_of(v)) {
        NetState& state = net_state_[net];
        update_side(state, state.count[to] + state.ext[to], to, v, -1);
        --state.count[from];
        ++state.count[to];
        update_side(state, state.count[from] + state.ext[from], from, v, +1);
      }
      vertex_[v].side = to;
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
      const std::uint8_t from = vertex_[v].side;
      const std::uint8_t to = 1 - from;
      for (std::uint32_t net : nets_of(v)) {
        --net_state_[net].count[from];
        ++net_state_[net].count[to];
      }
      vertex_[v].side = to;
    }
    return best_prefix_gain > 0;
  }

  const PlaceGraph& graph_;
  const Incidence& incidence_;
  const std::vector<Point>& pos_;
  const PlaceOptions& options_;

  // Global net id -> local id, UINT32_MAX outside the current bisection.
  std::vector<std::uint32_t> net_local_;

  // The current region: n_ objects and num_nets_ local nets. Local nets
  // (CSR over local object ids) and the local incidence (CSR over local net
  // ids) fill the fronts of arrays sized for the whole graph.
  std::uint32_t n_ = 0;
  std::uint32_t num_nets_ = 0;
  std::vector<std::uint32_t> touched_nets_;  // local net -> global net
  std::vector<NetState> net_state_;
  std::vector<std::uint32_t> net_pins_;
  std::vector<std::uint32_t> inc_begin_;
  std::vector<std::uint32_t> inc_;

  std::vector<double> area_;
  std::uint32_t max_degree_ = 1;
  double total_area_ = 0.0;
  double min_area_ = 0.0;

  std::vector<Vertex> vertex_;
  std::vector<std::uint32_t> queue_;  // BFS
  std::vector<std::uint32_t> sequence_;  // FM moves of the pass
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
    bisector.run(objects, axis_x, mid, rng);

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
    // being read), side-1 objects go through `spill` to the back. Each
    // object goes to its child's center, on that child's cut line, where
    // Bisector::run expects it (the root's objects start at the die center).
    spill.clear();
    std::uint32_t split = region.begin;
    for (std::size_t i = 0; i < objects.size(); ++i) {
      const std::uint32_t obj = objects[i];
      if (bisector.side(static_cast<std::uint32_t>(i)) == 0) {
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
