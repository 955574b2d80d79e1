// Chipkill-style symbol-correcting code (SSC-DSD).
//
// The related work the paper cites (Sridharan & Liberty) measured chipkill
// to be ~42x more reliable than SECDED because DRAM faults cluster inside
// one device: a whole-chip failure corrupts one b-bit *symbol* of the ECC
// word, which a single-symbol-correct / double-symbol-detect code repairs.
//
// We model the outcome function of such a code over 4-bit symbols (x4
// devices): 16 data symbols (64 bits) plus 2 check symbols.
//   - errors confined to one symbol   -> corrected
//   - errors spanning two symbols     -> detected, uncorrectable
//   - errors spanning three+ symbols  -> beyond the code's guarantee; modelled
//     as undetected (worst case for the SDC analysis, and stated as such),
//     silent only if a data bit was hit.
//
// This is an outcome model, not a Reed-Solomon implementation: the analyses
// only consume the correct/detect-only/SDC verdict.
#pragma once

#include "ecc/code.hpp"

namespace unp::ecc {

class ChipkillCode final : public Code {
 public:
  static constexpr int kSymbolBits = 4;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "chipkill";
  }
  [[nodiscard]] CodeGeometry geometry() const noexcept override;
  [[nodiscard]] Verdict evaluate(
      std::span<const int> error_bits) const override;
};

}  // namespace unp::ecc
