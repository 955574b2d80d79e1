// SECDED(72,64) outcome characterization by error weight.
//
// Grounds the paper's SDC arithmetic: SECDED corrects weight-1, detects
// weight-2, and for wider errors splits between detection, miscorrection
// and (for even weights whose syndrome cancels) complete silence.  Weights
// 1 and 2 are verified exhaustively; higher weights are Monte Carlo.  The
// silent fractions here are what turns Table I's ">2 corrupted bits" rows
// into the paper's silent-data-corruption exposure.
#include <bit>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "ecc/registry.hpp"
#include "util/campaign_cache.hpp"

int main() {
  using namespace unp;
  bench::print_header(
      "SECDED(72,64) outcome characterization by error weight",
      "w=1 always corrected; w=2 always detected; w>2 splits into detected / "
      "miscorrected / undetected - the SDC exposure");

  const auto code = ecc::make_code("secded72");
  RngStream rng(4242);

  TextTable table({"Flipped data bits", "Samples", "Corrected OK",
                   "Detected", "Miscorrected", "Silent (clean decode)"});

  for (int weight = 1; weight <= 8; ++weight) {
    std::uint64_t corrected = 0, detected = 0, miscorrected = 0, silent = 0;
    std::uint64_t samples = 0;

    // The code is linear, so the verdict depends only on the flipped
    // data-bit positions, never on the data word they land on.
    std::vector<int> bits;
    auto classify = [&](std::uint64_t mask) {
      bits.clear();
      for (std::uint64_t m = mask; m != 0; m &= m - 1) {
        bits.push_back(std::countr_zero(m));
      }
      ++samples;
      switch (code->evaluate(bits)) {
        case ecc::Verdict::kCorrect: ++corrected; break;
        case ecc::Verdict::kDetectOnly: ++detected; break;
        case ecc::Verdict::kMiscorrect: ++miscorrected; break;
        case ecc::Verdict::kSdc: ++silent; break;
      }
    };

    if (weight <= 2) {
      // Exhaustive over bit positions.
      if (weight == 1) {
        for (int i = 0; i < 64; ++i) classify(1ULL << i);
      } else {
        for (int i = 0; i < 64; ++i) {
          for (int j = i + 1; j < 64; ++j) {
            classify((1ULL << i) | (1ULL << j));
          }
        }
      }
    } else {
      constexpr std::uint64_t kSamples = 200000;
      for (std::uint64_t s = 0; s < kSamples; ++s) {
        // The data draw keeps the RNG stream (and so every mask) pinned.
        (void)rng.next_u64();
        std::uint64_t mask = 0;
        while (std::popcount(mask) < weight) {
          mask |= 1ULL << rng.uniform_u64(64);
        }
        classify(mask);
      }
    }

    auto pct = [&](std::uint64_t v) {
      return format_fixed(100.0 * static_cast<double>(v) /
                              static_cast<double>(samples),
                          3) + "%";
    };
    table.add_row({std::to_string(weight), format_count(samples),
                   pct(corrected), pct(detected), pct(miscorrected),
                   pct(silent)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "(miscorrected = the decoder 'fixed' a healthy bit; silent = the\n"
      " corrupted word decoded as valid.  Both reach the application as\n"
      " wrong data - the per-weight SDC exposure behind Section III-D)\n");
  return 0;
}
