#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "sop/minimize.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "workloads/plagen.hpp"
#include "workloads/presets.hpp"

namespace cals {
namespace {

TEST(Minimize, RemovesContainedCubes) {
  Sop sop;
  sop.num_inputs = 3;
  sop.cubes = {Cube::parse("1--"), Cube::parse("110")};
  const MinimizeStats stats = minimize(sop);
  EXPECT_EQ(sop.cubes.size(), 1u);
  EXPECT_EQ(sop.cubes[0].str(), "1--");
  EXPECT_EQ(stats.containments_removed, 1u);
}

TEST(Minimize, MergesAdjacentCubes) {
  Sop sop;
  sop.num_inputs = 2;
  sop.cubes = {Cube::parse("10"), Cube::parse("11")};
  minimize(sop);
  ASSERT_EQ(sop.cubes.size(), 1u);
  EXPECT_EQ(sop.cubes[0].str(), "1-");
}

TEST(Minimize, CascadesToFixpoint) {
  // Four minterms of a 2-input tautology collapse to the universal cube.
  Sop sop;
  sop.num_inputs = 2;
  sop.cubes = {Cube::parse("00"), Cube::parse("01"), Cube::parse("10"), Cube::parse("11")};
  minimize(sop);
  ASSERT_EQ(sop.cubes.size(), 1u);
  EXPECT_EQ(sop.cubes[0].str(), "--");
}

TEST(Minimize, IdempotentOnMinimalCover) {
  Sop sop;
  sop.num_inputs = 3;
  sop.cubes = {Cube::parse("1-1"), Cube::parse("01-")};
  const MinimizeStats stats = minimize(sop);
  EXPECT_EQ(stats.merges, 0u);
  EXPECT_EQ(stats.containments_removed, 0u);
  EXPECT_EQ(sop.cubes.size(), 2u);
}

class MinimizeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinimizeProperty, PreservesFunctionExhaustively) {
  Rng rng(GetParam());
  const std::uint32_t num_inputs = 2 + static_cast<std::uint32_t>(rng.below(7));  // <= 8
  Sop sop;
  sop.num_inputs = num_inputs;
  const std::uint32_t num_cubes = 1 + static_cast<std::uint32_t>(rng.below(24));
  for (std::uint32_t c = 0; c < num_cubes; ++c) {
    Cube cube(num_inputs);
    for (std::uint32_t i = 0; i < num_inputs; ++i) {
      const auto roll = rng.below(3);
      cube.set(i, roll == 0 ? Lit::kZero : roll == 1 ? Lit::kOne : Lit::kDash);
    }
    sop.cubes.push_back(std::move(cube));
  }
  Sop minimized = sop;
  minimize(minimized);
  EXPECT_LE(minimized.cubes.size(), sop.cubes.size());
  for (std::uint64_t m = 0; m < (1ULL << num_inputs); ++m)
    ASSERT_EQ(minimized.eval(m), sop.eval(m)) << "minterm " << m;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeProperty, ::testing::Range<std::uint64_t>(0, 40));

class PlaMinimizeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlaMinimizeProperty, PreservesAllOutputs) {
  PlaGenSpec spec;
  spec.num_inputs = 8;
  spec.num_outputs = 5;
  spec.num_products = 40;
  spec.care_probability = 0.5;
  spec.outputs_per_product = 2.0;
  spec.seed = GetParam();
  const Pla pla = generate_pla(spec);
  Pla minimized = pla;
  minimize(minimized);
  minimized.validate();
  EXPECT_LE(minimized.products.size(), pla.products.size());
  for (std::uint32_t o = 0; o < pla.num_outputs; ++o)
    for (std::uint64_t m = 0; m < 256; ++m)
      ASSERT_EQ(minimized.eval(o, m), pla.eval(o, m)) << "output " << o << " minterm " << m;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlaMinimizeProperty, ::testing::Range<std::uint64_t>(0, 20));

// ---- reference: the byte-wise loops over Cube's methods ---------------------
// minimize() runs these loops on packed cubes; the reference keeps them over
// Cube::contains / mergeable / merged, so any divergence in cube order,
// survivors, merges or statistics shows up as a mismatch.

std::uint32_t ref_remove_contained(std::vector<Cube>& cubes) {
  std::vector<bool> dead(cubes.size(), false);
  std::uint32_t removed = 0;
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    if (dead[i]) continue;
    for (std::size_t j = 0; j < cubes.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (cubes[i].contains(cubes[j])) {
        if (cubes[j].contains(cubes[i]) && j < i) continue;
        dead[j] = true;
        ++removed;
      }
    }
  }
  std::vector<Cube> next;
  for (std::size_t i = 0; i < cubes.size(); ++i)
    if (!dead[i]) next.push_back(std::move(cubes[i]));
  cubes = std::move(next);
  return removed;
}

std::uint32_t ref_merge_pass(std::vector<Cube>& cubes) {
  std::uint32_t merges = 0;
  std::vector<bool> dead(cubes.size(), false);
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    if (dead[i]) continue;
    for (std::size_t j = i + 1; j < cubes.size(); ++j) {
      if (dead[j]) continue;
      if (cubes[i].mergeable(cubes[j])) {
        cubes[i] = cubes[i].merged(cubes[j]);
        dead[j] = true;
        ++merges;
      }
    }
  }
  std::vector<Cube> next;
  for (std::size_t i = 0; i < cubes.size(); ++i)
    if (!dead[i]) next.push_back(std::move(cubes[i]));
  cubes = std::move(next);
  return merges;
}

MinimizeStats ref_minimize(Sop& sop) {
  MinimizeStats stats;
  stats.cubes_before = static_cast<std::uint32_t>(sop.cubes.size());
  for (;;) {
    const std::uint32_t removed = ref_remove_contained(sop.cubes);
    const std::uint32_t merged = ref_merge_pass(sop.cubes);
    stats.containments_removed += removed;
    stats.merges += merged;
    if (removed == 0 && merged == 0) break;
  }
  std::sort(sop.cubes.begin(), sop.cubes.end());
  stats.cubes_after = static_cast<std::uint32_t>(sop.cubes.size());
  return stats;
}

MinimizeStats ref_minimize(Pla& pla) {
  MinimizeStats total;
  total.cubes_before = static_cast<std::uint32_t>(pla.products.size());
  std::map<Cube, std::uint32_t> product_index;
  std::vector<Cube> products;
  std::vector<std::vector<std::uint32_t>> outputs(pla.num_outputs);
  for (std::uint32_t o = 0; o < pla.num_outputs; ++o) {
    Sop cover = pla.sop(o);
    const MinimizeStats s = ref_minimize(cover);
    total.merges += s.merges;
    total.containments_removed += s.containments_removed;
    for (const Cube& cube : cover.cubes) {
      auto [it, inserted] =
          product_index.try_emplace(cube, static_cast<std::uint32_t>(products.size()));
      if (inserted) products.push_back(cube);
      outputs[o].push_back(it->second);
    }
    std::sort(outputs[o].begin(), outputs[o].end());
    outputs[o].erase(std::unique(outputs[o].begin(), outputs[o].end()), outputs[o].end());
  }
  pla.products = std::move(products);
  pla.outputs = std::move(outputs);
  total.cubes_after = static_cast<std::uint32_t>(pla.products.size());
  return total;
}

void expect_same_stats(const MinimizeStats& a, const MinimizeStats& b) {
  EXPECT_EQ(a.cubes_before, b.cubes_before);
  EXPECT_EQ(a.cubes_after, b.cubes_after);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.containments_removed, b.containments_removed);
}

Lit random_lit(Rng& rng) {
  const auto roll = rng.below(3);
  return roll == 0 ? Lit::kZero : roll == 1 ? Lit::kOne : Lit::kDash;
}

/// A random cover over `width` inputs that exercises every rule: a few
/// random base cubes, then variants one literal away (merge candidates),
/// with a literal dropped (containment) and exact duplicates (the
/// identical-cube tie-break), in random order.
std::vector<Cube> random_cover(Rng& rng, std::uint32_t width) {
  std::vector<Cube> cubes;
  const auto bases = 1 + rng.below(6);
  for (std::uint64_t b = 0; b < bases; ++b) {
    Cube cube(width);
    for (std::uint32_t i = 0; i < width; ++i) cube.set(i, random_lit(rng));
    cubes.push_back(std::move(cube));
  }
  const auto variants = rng.below(40);
  for (std::uint64_t v = 0; v < variants; ++v) {
    Cube cube = cubes[rng.below(cubes.size())];
    const auto pos = static_cast<std::uint32_t>(rng.below(width));
    switch (rng.below(4)) {
      case 0:
        if (cube.at(pos) != Lit::kDash)
          cube.set(pos, cube.at(pos) == Lit::kOne ? Lit::kZero : Lit::kOne);
        else
          cube.set(pos, random_lit(rng));
        break;
      case 1: cube.set(pos, Lit::kDash); break;
      case 2: cube.set(pos, random_lit(rng)); break;
      default: break;  // duplicate
    }
    cubes.push_back(std::move(cube));
  }
  for (std::size_t i = cubes.size(); i > 1; --i) std::swap(cubes[i - 1], cubes[rng.below(i)]);
  return cubes;
}

TEST(MinimizeReference, PackedLoopsMatchByteWiseLoopsAtEveryWidth) {
  std::vector<std::uint32_t> widths;
  for (std::uint32_t w = 1; w <= 130; ++w) widths.push_back(w);
  for (const std::uint32_t w : {63u, 64u, 65u, 127u, 128u, 129u})
    for (int extra = 0; extra < 8; ++extra) widths.push_back(w);
  Rng rng(2024);
  std::uint32_t merges = 0;
  std::uint32_t removed = 0;
  for (const std::uint32_t width : widths) {
    Sop sop;
    sop.num_inputs = width;
    sop.cubes = random_cover(rng, width);
    Sop expected = sop;
    const MinimizeStats want = ref_minimize(expected);
    const MinimizeStats got = minimize(sop);
    SCOPED_TRACE("width " + std::to_string(width));
    expect_same_stats(got, want);
    ASSERT_EQ(sop.cubes, expected.cubes);
    merges += got.merges;
    removed += got.containments_removed;
  }
  // The covers must actually exercise both rules.
  EXPECT_GT(merges, 100u);
  EXPECT_GT(removed, 100u);
}

TEST(MinimizeReference, PlaMatchesByteWiseLoopsAcrossWordBoundaries) {
  Rng rng(77);
  for (const std::uint32_t width : {1u, 5u, 63u, 64u, 65u, 100u, 129u, 130u}) {
    Pla pla;
    pla.num_inputs = width;
    pla.num_outputs = 4;
    pla.products = random_cover(rng, width);
    pla.outputs.resize(pla.num_outputs);
    for (std::uint32_t p = 0; p < pla.products.size(); ++p) {
      const auto fanout = 1 + rng.below(2);
      for (std::uint64_t k = 0; k < fanout; ++k)
        pla.outputs[rng.below(pla.num_outputs)].push_back(p);
    }
    for (auto& rows : pla.outputs) {
      if (rows.empty()) rows.push_back(0);
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    }
    Pla expected = pla;
    const MinimizeStats want = ref_minimize(expected);
    const MinimizeStats got = minimize(pla);
    SCOPED_TRACE("width " + std::to_string(width));
    expect_same_stats(got, want);
    EXPECT_EQ(pla.products, expected.products);
    EXPECT_EQ(pla.outputs, expected.outputs);
  }
}

TEST(MinimizeReference, ZeroProductsAndUniversalCubes) {
  Sop empty;
  empty.num_inputs = 70;
  EXPECT_EQ(minimize(empty).cubes_after, 0u);
  Sop universal;
  universal.num_inputs = 70;
  universal.cubes = {Cube(70), Cube::parse(std::string(69, '-') + "1"), Cube(70)};
  const MinimizeStats stats = minimize(universal);
  ASSERT_EQ(universal.cubes.size(), 1u);
  EXPECT_EQ(universal.cubes[0], Cube(70));
  EXPECT_EQ(stats.containments_removed, 2u);
}

// ---- golden minimized presets -----------------------------------------------
// FNV-1a over the minimized product plane (each product's text), the output
// rows and the statistics: pins minimize(Pla&)'s first-seen product order.

std::uint64_t pla_digest(const Pla& pla, const MinimizeStats& stats) {
  Fnv64 h;
  for (const Cube& cube : pla.products) h.update(cube.str()).update("\n");
  for (const auto& rows : pla.outputs) {
    const std::uint64_t size = rows.size();
    h.update(&size, sizeof size);
    h.update(rows.data(), rows.size() * sizeof(rows[0]));
  }
  const std::uint32_t s[4] = {stats.cubes_before, stats.cubes_after, stats.merges,
                              stats.containments_removed};
  h.update(s, sizeof s);
  return h.digest();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(MinimizeGolden, PresetsAtScale035) {
  struct Case {
    const char* name;
    Pla (*make)(double);
    std::uint64_t digest;
  };
  const Case cases[] = {{"spla", &workloads::spla_like, 0xe6c4463d2bf1a4feull},
                        {"pdc", &workloads::pdc_like, 0x2e685842797a4bfbull},
                        {"too_large", &workloads::too_large_like, 0x33926adac0748af8ull}};
  for (const Case& c : cases) {
    Pla pla = c.make(0.35);
    const MinimizeStats stats = minimize(pla);
    EXPECT_EQ(hex(pla_digest(pla, stats)), hex(c.digest)) << c.name;
  }
}

}  // namespace
}  // namespace cals
