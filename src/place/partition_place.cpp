#include "place/partition_place.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "util/check.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"

namespace cals {
namespace {

/// Object -> incident nets, CSR.
struct Incidence {
  std::vector<std::uint32_t> offset;
  std::vector<std::uint32_t> data;

  explicit Incidence(const PlaceGraph& graph) {
    offset.assign(graph.num_objects + 1, 0);
    for (const HyperNet& net : graph.nets)
      for (std::uint32_t p : net.pins) ++offset[p + 1];
    for (std::uint32_t i = 0; i < graph.num_objects; ++i) offset[i + 1] += offset[i];
    data.assign(offset.back(), 0);
    std::vector<std::uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (std::uint32_t n = 0; n < graph.nets.size(); ++n)
      for (std::uint32_t p : graph.nets[n].pins) data[cursor[p]++] = n;
  }
};

struct Region {
  Rect rect;
  std::vector<std::uint32_t> objects;  // movable objects only
};

/// Fiduccia–Mattheyses bisection with gain buckets and terminal propagation.
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

  /// Partitions region.objects into sides 0/1 across a cut of the region
  /// along `axis_x` (true: vertical cut at x=mid, side 0 = low x). Draws
  /// one value from `rng` to seed the initial BFS cluster.
  std::vector<std::uint8_t> run(const Region& region, bool axis_x, double mid, Rng& rng) {
    init_locals(region, axis_x, mid);
    init_partition(rng);
    CALS_OBS_COUNT("place.bisections", 1);
    for (std::uint32_t pass = 0; pass < options_.fm_passes; ++pass) {
      CALS_OBS_COUNT("place.fm_passes", 1);
      if (!fm_pass()) break;
    }
    auto side = side_;
    clear_locals(region);
    return side;
  }

 private:
  struct LocalNet {
    std::vector<std::uint32_t> pins;  // local object indices, unique
    std::uint32_t ext[2] = {0, 0};    // external pins per side (anchors)
    std::uint32_t count[2] = {0, 0};  // local pins per side (dynamic)
  };

  void init_locals(const Region& region, bool axis_x, double mid) {
    objects_ = &region.objects;
    const auto n = static_cast<std::uint32_t>(region.objects.size());
    for (std::uint32_t i = 0; i < n; ++i) obj_local_[region.objects[i]] = i;

    nets_.clear();
    touched_nets_.clear();
    for (std::uint32_t obj : region.objects) {
      for (std::uint32_t ni = incidence_.offset[obj]; ni < incidence_.offset[obj + 1];
           ++ni) {
        const std::uint32_t net = incidence_.data[ni];
        if (net_local_[net] != UINT32_MAX) continue;
        net_local_[net] = static_cast<std::uint32_t>(nets_.size());
        touched_nets_.push_back(net);
        LocalNet local;
        for (std::uint32_t pin : graph_.nets[net].pins) {
          const std::uint32_t li = obj_local_[pin];
          if (li != UINT32_MAX) {
            local.pins.push_back(li);
          } else {
            const double c = axis_x ? pos_[pin].x : pos_[pin].y;
            ++local.ext[c < mid ? 0 : 1];
          }
        }
        std::sort(local.pins.begin(), local.pins.end());
        local.pins.erase(std::unique(local.pins.begin(), local.pins.end()),
                         local.pins.end());
        nets_.push_back(std::move(local));
      }
    }
    total_area_ = 0.0;
    area_.resize(n);
    degree_.assign(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t obj = region.objects[i];
      area_[i] = std::max(graph_.width[obj], 1e-9);
      total_area_ += area_[i];
      degree_[i] = incidence_.offset[obj + 1] - incidence_.offset[obj];
    }
    max_degree_ = 1;
    for (std::uint32_t d : degree_) max_degree_ = std::max(max_degree_, d);
    side_.assign(n, 0);
  }

  void clear_locals(const Region& region) {
    for (std::uint32_t obj : region.objects) obj_local_[obj] = UINT32_MAX;
    for (std::uint32_t net : touched_nets_) net_local_[net] = UINT32_MAX;
  }

  /// BFS-clustered initial partition: grow side 0 from a seed until it holds
  /// half the area, so FM starts from a connected cluster.
  void init_partition(Rng& rng) {
    const auto n = static_cast<std::uint32_t>(side_.size());
    std::fill(side_.begin(), side_.end(), static_cast<std::uint8_t>(1));
    std::vector<bool> visited(n, false);
    std::deque<std::uint32_t> queue;
    double area0 = 0.0;
    const double target = total_area_ * 0.5;
    auto scan = static_cast<std::uint32_t>(rng.below(std::max(1u, n)));
    std::uint32_t wrapped = 0;
    while (area0 < target && wrapped < 2) {
      if (queue.empty()) {
        while (scan < n && visited[scan]) ++scan;
        if (scan >= n) {
          scan = 0;
          ++wrapped;
          continue;
        }
        queue.push_back(scan);
        visited[scan] = true;
      }
      const std::uint32_t v = queue.front();
      queue.pop_front();
      side_[v] = 0;
      area0 += area_[v];
      const std::uint32_t obj = (*objects_)[v];
      for (std::uint32_t ni = incidence_.offset[obj]; ni < incidence_.offset[obj + 1];
           ++ni) {
        const LocalNet& net = nets_[net_local_[incidence_.data[ni]]];
        for (std::uint32_t w : net.pins) {
          if (!visited[w]) {
            visited[w] = true;
            queue.push_back(w);
          }
        }
      }
    }
    for (LocalNet& net : nets_) {
      net.count[0] = net.count[1] = 0;
      for (std::uint32_t v : net.pins) ++net.count[side_[v]];
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
    const std::uint32_t obj = (*objects_)[v];
    for (std::uint32_t ni = incidence_.offset[obj]; ni < incidence_.offset[obj + 1];
         ++ni) {
      const LocalNet& net = nets_[net_local_[incidence_.data[ni]]];
      if (net.count[from] + net.ext[from] == 1) ++g;
      if (net.count[to] + net.ext[to] == 0) --g;
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
    next_.assign(n, UINT32_MAX);
    prev_.assign(n, UINT32_MAX);
    locked_.assign(n, false);
    gain_.resize(n);
    for (std::uint32_t v = 0; v < n; ++v) gain_[v] = compute_gain(v);
    for (std::uint32_t v = 0; v < n; ++v) bucket_insert(v);

    std::vector<std::uint32_t> sequence;
    sequence.reserve(n);
    std::int64_t best_prefix_gain = 0;
    std::int64_t running = 0;
    std::size_t best_prefix = 0;
    std::uint32_t stale = 0;  // moves since the best prefix

    for (std::uint32_t step = 0; step < n; ++step) {
      // Select the best-gain movable vertex over both sides that respects
      // the balance constraint.
      std::uint32_t chosen = UINT32_MAX;
      std::int32_t chosen_gain = INT32_MIN;
      for (int s = 0; s < 2; ++s) {
        for (std::uint32_t b = num_buckets; b-- > 0;) {
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
      locked_[v] = true;
      area0 += (from == 0) ? -area_[v] : area_[v];

      const std::uint32_t obj = (*objects_)[v];
      for (std::uint32_t ni = incidence_.offset[obj]; ni < incidence_.offset[obj + 1];
           ++ni) {
        LocalNet& net = nets_[net_local_[incidence_.data[ni]]];
        const std::uint32_t to_total = net.count[to] + net.ext[to];
        if (to_total == 0) {
          for (std::uint32_t w : net.pins) gain_update(w, +1);
        } else if (to_total == 1) {
          for (std::uint32_t w : net.pins)
            if (side_[w] == to) gain_update(w, -1);
        }
        --net.count[from];
        ++net.count[to];
        const std::uint32_t from_after = net.count[from] + net.ext[from];
        if (from_after == 0) {
          for (std::uint32_t w : net.pins) gain_update(w, -1);
        } else if (from_after == 1) {
          for (std::uint32_t w : net.pins)
            if (side_[w] == from) gain_update(w, +1);
        }
      }
      side_[v] = to;
      sequence.push_back(v);
      running += chosen_gain;
      if (running > best_prefix_gain) {
        best_prefix_gain = running;
        best_prefix = sequence.size();
        stale = 0;
      } else {
        ++stale;
      }
    }

    // Roll back moves after the best prefix.
    for (std::size_t i = sequence.size(); i > best_prefix; --i) {
      const std::uint32_t v = sequence[i - 1];
      const std::uint8_t from = side_[v];
      const std::uint8_t to = 1 - from;
      const std::uint32_t obj = (*objects_)[v];
      for (std::uint32_t ni = incidence_.offset[obj]; ni < incidence_.offset[obj + 1];
           ++ni) {
        LocalNet& net = nets_[net_local_[incidence_.data[ni]]];
        --net.count[from];
        ++net.count[to];
      }
      side_[v] = to;
    }
    return best_prefix_gain > 0;
  }

  const PlaceGraph& graph_;
  const Incidence& incidence_;
  const std::vector<Point>& pos_;
  const PlaceOptions& options_;

  const std::vector<std::uint32_t>* objects_ = nullptr;
  std::vector<std::uint32_t> obj_local_;
  std::vector<std::uint32_t> net_local_;
  std::vector<std::uint32_t> touched_nets_;
  std::vector<LocalNet> nets_;
  std::vector<double> area_;
  std::vector<std::uint32_t> degree_;
  std::uint32_t max_degree_ = 1;
  std::vector<std::uint8_t> side_;
  double total_area_ = 0.0;

  // FM pass state
  std::vector<std::int32_t> gain_;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> prev_;
  std::vector<bool> locked_;
  std::vector<std::uint32_t> bucket_head_[2];
  std::uint32_t max_bucket_[2] = {0, 0};
};

/// Spreads terminal-region objects on a small grid inside the region.
void spread_in_region(const Region& region, std::vector<Point>& pos) {
  const std::size_t n = region.objects.size();
  if (n == 0) return;
  const auto k = static_cast<std::uint32_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t gx = static_cast<std::uint32_t>(i) % k;
    const std::uint32_t gy = static_cast<std::uint32_t>(i) / k;
    pos[region.objects[i]] = {region.rect.lo.x + (gx + 0.5) * region.rect.width() / k,
                              region.rect.lo.y + (gy + 0.5) * region.rect.height() / k};
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

  std::deque<Region> work;
  Region top;
  top.rect = floorplan.die();
  for (std::uint32_t i = 0; i < graph.num_objects; ++i)
    if (!graph.fixed[i]) top.objects.push_back(i);
  work.push_back(std::move(top));

  const double min_dim = std::min(floorplan.row_height(), floorplan.site_width() * 4);
  while (!work.empty()) {
    Region region = std::move(work.front());
    work.pop_front();
    if (region.objects.size() <= options.min_bin_objects ||
        (region.rect.width() <= min_dim && region.rect.height() <= min_dim)) {
      spread_in_region(region, result.pos);
      continue;
    }
    // Cancellation checkpoint once per bisection.
    cancel_point(options.cancel);
    const bool axis_x = region.rect.width() >= region.rect.height();
    const double mid = axis_x ? (region.rect.lo.x + region.rect.hi.x) * 0.5
                              : (region.rect.lo.y + region.rect.hi.y) * 0.5;
    const auto side = bisector.run(region, axis_x, mid, rng);

    Region child0;
    Region child1;
    child0.rect = region.rect;
    child1.rect = region.rect;
    if (axis_x) {
      child0.rect.hi.x = mid;
      child1.rect.lo.x = mid;
    } else {
      child0.rect.hi.y = mid;
      child1.rect.lo.y = mid;
    }
    for (std::size_t i = 0; i < region.objects.size(); ++i) {
      const std::uint32_t obj = region.objects[i];
      if (side[i] == 0) {
        child0.objects.push_back(obj);
        result.pos[obj] = child0.rect.center();
      } else {
        child1.objects.push_back(obj);
        result.pos[obj] = child1.rect.center();
      }
    }
    if (!child0.objects.empty()) work.push_back(std::move(child0));
    if (!child1.objects.empty()) work.push_back(std::move(child1));
  }
  return result;
}

}  // namespace cals
