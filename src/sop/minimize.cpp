#include "sop/minimize.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/check.hpp"

namespace cals {
namespace {

/// Cubes over one input space, packed once into bit words: cube c holds
/// `words` care words (bit i set = input i is a literal) followed by `words`
/// value words (bit i set = the literal is positive; clear under a dash),
/// words = ceil(num_inputs / 64). The loops below run Cube's
/// contains / mergeable / merged on these words.
class PackedCubes {
 public:
  explicit PackedCubes(std::uint32_t num_inputs)
      : num_inputs_(num_inputs), words_((num_inputs + 63) / 64) {}

  std::uint32_t size() const { return size_; }
  void clear() {
    bits_.clear();
    size_ = 0;
  }

  void push(const Cube& cube) {
    CALS_CHECK(cube.size() == num_inputs_);
    bits_.resize(bits_.size() + 2 * words_, 0);
    std::uint64_t* care = cube_bits(size_);
    std::uint64_t* value = care + words_;
    for (std::uint32_t i = 0; i < num_inputs_; ++i) {
      const Lit lit = cube.at(i);
      if (lit == Lit::kDash) continue;
      care[i / 64] |= 1ULL << (i % 64);
      if (lit == Lit::kOne) value[i / 64] |= 1ULL << (i % 64);
    }
    ++size_;
  }
  /// Appends cube `c` of `other` (same input space).
  void push(const PackedCubes& other, std::uint32_t c) {
    const std::uint64_t* src = other.cube_bits(c);
    bits_.insert(bits_.end(), src, src + 2 * words_);
    ++size_;
  }

  Cube unpack(std::uint32_t c) const {
    Cube cube(num_inputs_);
    const std::uint64_t* care = cube_bits(c);
    const std::uint64_t* value = care + words_;
    for (std::uint32_t i = 0; i < num_inputs_; ++i) {
      const std::uint64_t bit = 1ULL << (i % 64);
      if ((care[i / 64] & bit) != 0)
        cube.set(i, (value[i / 64] & bit) != 0 ? Lit::kOne : Lit::kZero);
    }
    return cube;
  }

  /// Cube::contains: every literal of `a` is a literal of `b` with the same
  /// polarity.
  bool contains(std::uint32_t a, std::uint32_t b) const {
    const std::uint64_t* ca = cube_bits(a);
    const std::uint64_t* cb = cube_bits(b);
    for (std::uint32_t w = 0; w < words_; ++w)
      if (((ca[w] & ~cb[w]) | ((ca[words_ + w] ^ cb[words_ + w]) & ca[w])) != 0) return false;
    return true;
  }
  /// Cube a here equals cube b of `other` (same input space).
  bool same(std::uint32_t a, const PackedCubes& other, std::uint32_t b) const {
    return std::equal(cube_bits(a), cube_bits(a) + 2 * words_, other.cube_bits(b));
  }
  /// Cube::mergeable: the same literal positions, opposite polarity in
  /// exactly one.
  bool mergeable(std::uint32_t a, std::uint32_t b) const {
    const std::uint64_t* ca = cube_bits(a);
    const std::uint64_t* cb = cube_bits(b);
    int conflicts = 0;
    for (std::uint32_t w = 0; w < words_; ++w) {
      if (ca[w] != cb[w]) return false;
      conflicts += std::popcount(ca[words_ + w] ^ cb[words_ + w]);
      if (conflicts > 1) return false;
    }
    return conflicts == 1;
  }
  /// Cube a becomes a.merged(b): the conflicting position turns into a dash.
  void merge_into(std::uint32_t a, std::uint32_t b) {
    std::uint64_t* ca = cube_bits(a);
    const std::uint64_t* cb = cube_bits(b);
    for (std::uint32_t w = 0; w < words_; ++w) {
      const std::uint64_t conflict = ca[words_ + w] ^ cb[words_ + w];
      ca[w] &= ~conflict;
      ca[words_ + w] &= ~conflict;
    }
  }
  /// Cube's operator<: lexicographic over the literals, 0 < 1 < dash.
  bool less(std::uint32_t a, std::uint32_t b) const {
    const std::uint64_t* ca = cube_bits(a);
    const std::uint64_t* cb = cube_bits(b);
    for (std::uint32_t w = 0; w < words_; ++w) {
      const std::uint64_t differ = (ca[w] ^ cb[w]) | (ca[words_ + w] ^ cb[words_ + w]);
      if (differ == 0) continue;
      const std::uint64_t bit = differ & (~differ + 1);
      const auto lit = [bit, w, this](const std::uint64_t* c) {
        return (c[w] & bit) == 0 ? 2 : (c[words_ + w] & bit) != 0 ? 1 : 0;
      };
      return lit(ca) < lit(cb);
    }
    return false;
  }
  /// Keeps the cubes whose `dead` flag is clear, in order.
  void keep_live(const std::vector<std::uint8_t>& dead) {
    std::uint32_t kept = 0;
    for (std::uint32_t c = 0; c < size_; ++c) {
      if (dead[c] != 0) continue;
      if (kept != c) std::copy_n(cube_bits(c), 2 * words_, cube_bits(kept));
      ++kept;
    }
    size_ = kept;
    bits_.resize(static_cast<std::size_t>(size_) * 2 * words_);
  }

  std::uint64_t hash(std::uint32_t c) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t w = 0; w < 2 * words_; ++w)
      h = (h ^ cube_bits(c)[w]) * 0xbf58476d1ce4e5b9ULL;
    return h ^ (h >> 31);
  }

 private:
  std::uint64_t* cube_bits(std::uint32_t c) {
    return bits_.data() + static_cast<std::size_t>(c) * 2 * words_;
  }
  const std::uint64_t* cube_bits(std::uint32_t c) const {
    return bits_.data() + static_cast<std::size_t>(c) * 2 * words_;
  }

  std::uint32_t num_inputs_;
  std::uint32_t words_;
  std::uint32_t size_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// One containment-removal pass; returns number of cubes removed.
std::uint32_t remove_contained(PackedCubes& cubes, std::vector<std::uint8_t>& dead) {
  const std::uint32_t n = cubes.size();
  dead.assign(n, 0);
  std::uint32_t removed = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (dead[i] != 0) continue;
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i == j || dead[j] != 0) continue;
      if (cubes.contains(i, j)) {
        // Tie-break identical cubes by index so exactly one survives.
        if (j < i && cubes.same(i, cubes, j)) continue;
        dead[j] = 1;
        ++removed;
      }
    }
  }
  if (removed > 0) cubes.keep_live(dead);
  return removed;
}

/// One distance-1 merge pass; returns number of merges performed.
std::uint32_t merge_pass(PackedCubes& cubes, std::vector<std::uint8_t>& dead) {
  const std::uint32_t n = cubes.size();
  dead.assign(n, 0);
  std::uint32_t merges = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (dead[i] != 0) continue;
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (dead[j] != 0) continue;
      if (cubes.mergeable(i, j)) {
        cubes.merge_into(i, j);
        dead[j] = 1;
        ++merges;
      }
    }
  }
  if (merges > 0) cubes.keep_live(dead);
  return merges;
}

/// Minimizes `cubes` to the fixpoint and returns the survivors' indices in
/// Cube order (what std::sort over the unpacked cubes gives).
std::vector<std::uint32_t> minimize_packed(PackedCubes& cubes, MinimizeStats& stats,
                                           std::vector<std::uint8_t>& dead) {
  stats.cubes_before = cubes.size();
  for (;;) {
    const std::uint32_t removed = remove_contained(cubes, dead);
    const std::uint32_t merged = merge_pass(cubes, dead);
    stats.containments_removed += removed;
    stats.merges += merged;
    if (removed == 0 && merged == 0) break;
  }
  stats.cubes_after = cubes.size();
  std::vector<std::uint32_t> order(cubes.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&cubes](std::uint32_t a, std::uint32_t b) { return cubes.less(a, b); });
  return order;
}

}  // namespace

MinimizeStats minimize(Sop& sop) {
  PackedCubes cubes(sop.cubes.empty() ? 0 : sop.cubes.front().size());
  for (const Cube& cube : sop.cubes) cubes.push(cube);
  MinimizeStats stats;
  std::vector<std::uint8_t> dead;
  const std::vector<std::uint32_t> order = minimize_packed(cubes, stats, dead);
  sop.cubes.clear();
  for (const std::uint32_t c : order) sop.cubes.push_back(cubes.unpack(c));
  return stats;
}

MinimizeStats minimize(Pla& pla) {
  MinimizeStats total;
  total.cubes_before = static_cast<std::uint32_t>(pla.products.size());

  PackedCubes plane(pla.num_inputs);
  for (const Cube& cube : pla.products) plane.push(cube);

  // The new product plane, deduplicated across outputs in first-seen order
  // through an open-addressing table of product indices. No output's cover
  // grows, so the table never holds more than `rows` products.
  std::size_t rows = 0;
  for (const auto& output : pla.outputs) rows += output.size();
  PackedCubes products(pla.num_inputs);
  std::vector<std::uint32_t> table(std::bit_ceil(2 * rows + 1), UINT32_MAX);
  const std::size_t mask = table.size() - 1;

  std::vector<std::vector<std::uint32_t>> outputs(pla.num_outputs);
  PackedCubes cover(pla.num_inputs);
  std::vector<std::uint8_t> dead;
  for (std::uint32_t o = 0; o < pla.num_outputs; ++o) {
    cover.clear();
    for (const std::uint32_t p : pla.outputs[o]) cover.push(plane, p);
    MinimizeStats s;
    for (const std::uint32_t c : minimize_packed(cover, s, dead)) {
      // Linear probing up to the cube itself or a free slot.
      std::size_t slot = cover.hash(c) & mask;
      while (table[slot] != UINT32_MAX && !products.same(table[slot], cover, c))
        slot = (slot + 1) & mask;
      if (table[slot] == UINT32_MAX) {
        table[slot] = products.size();
        products.push(cover, c);
      }
      outputs[o].push_back(table[slot]);
    }
    total.merges += s.merges;
    total.containments_removed += s.containments_removed;
    std::sort(outputs[o].begin(), outputs[o].end());
    outputs[o].erase(std::unique(outputs[o].begin(), outputs[o].end()), outputs[o].end());
  }

  pla.products.clear();
  for (std::uint32_t p = 0; p < products.size(); ++p) pla.products.push_back(products.unpack(p));
  pla.outputs = std::move(outputs);
  pla.validate();
  total.cubes_after = static_cast<std::uint32_t>(pla.products.size());
  return total;
}

}  // namespace cals
