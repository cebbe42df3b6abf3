/// libFuzzer harness for the espresso-PLA parser and the two-level
/// minimizer: any byte sequence must produce a Pla or a structured Status —
/// never a crash, abort, hang or an attacker-controlled giant allocation
/// (see kMaxPlaneWidth). Every parsed PLA of at most 256 products and 256
/// inputs is also minimized; up to 64 inputs, each minimized output must
/// agree with the parsed one on 64 minterms derived from the input bytes.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "sop/minimize.hpp"
#include "sop/pla_io.hpp"
#include "util/fnv.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const auto result = cals::parse_pla_string(text);
  if (!result.ok()) return 0;
  const cals::Pla& pla = *result;
  if (pla.products.size() > 256 || pla.num_inputs > 256) return 0;

  cals::Pla minimized = pla;
  cals::minimize(minimized);
  if (pla.num_inputs > 64) return 0;
  std::uint64_t state = cals::fnv1a64_bytes(data, size) | 1;
  for (int k = 0; k < 64; ++k) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const std::uint64_t minterm = pla.num_inputs == 64 ? state
                                                       : state & ((1ULL << pla.num_inputs) - 1);
    for (std::uint32_t o = 0; o < pla.num_outputs; ++o)
      if (minimized.eval(o, minterm) != pla.eval(o, minterm)) std::abort();
  }
  return 0;
}
