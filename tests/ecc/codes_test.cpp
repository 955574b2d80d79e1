// The pluggable codes against ground truth: exhaustive guarantees per
// family, a pinned miscorrection census for 3-/4-bit upsets, the Hsiao
// column construction behind secded72, chipkill's symbol verdicts, the
// paper's SECDED-vs-chipkill population mix, the large-codeword EDC fast
// path and its CRC-aliasing SDC window, and the registry's malformed-spec
// contract.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/thread_pool.hpp"
#include "ecc/engine.hpp"
#include "ecc/hsiao.hpp"
#include "ecc/large.hpp"
#include "ecc/registry.hpp"

namespace unp::ecc {
namespace {

std::vector<int> bit_positions(std::uint64_t mask) {
  std::vector<int> bits;
  for (int b = 0; b < 64; ++b)
    if ((mask >> b) & 1u) bits.push_back(b);
  return bits;
}

ExhaustiveResult sweep(const std::string& spec, int max_weight) {
  const auto code = make_code(spec);
  EXPECT_NE(code, nullptr) << spec;
  ThreadPool pool(4);
  return evaluate_exhaustive(*code, max_weight, pool);
}

// --- per-family guarantees over every 1- and 2-bit pattern ----------------

TEST(CodesTest, EveryDefaultCodeCorrectsAllSingleBitUpsets) {
  for (const std::string& spec : default_code_specs()) {
    const auto code = make_code(spec);
    ASSERT_NE(code, nullptr) << spec;
    const CodeGeometry g = code->geometry();
    EXPECT_GE(g.guaranteed_correct, 1) << spec;
    for (int b = 0; b < g.codeword_bits; ++b) {
      const int bits[] = {b};
      ASSERT_EQ(code->evaluate(bits), Verdict::kCorrect)
          << spec << " bit " << b;
    }
    EXPECT_EQ(code->evaluate({}), Verdict::kCorrect) << spec;
  }
}

TEST(CodesTest, SecdedFamiliesDetectEveryDoubleBitUpset) {
  for (const char* spec : {"secded72", "hsiao:64/8", "hamming:64"}) {
    const ExhaustiveResult r = sweep(spec, 2);
    ASSERT_EQ(r.weights.size(), 2u) << spec;
    EXPECT_EQ(r.weights[1].counts.detect_only, r.weights[1].patterns) << spec;
    EXPECT_EQ(r.weights[1].counts.silent(), 0u) << spec;
  }
}

TEST(CodesTest, Bch2CorrectsEveryDoubleBitUpset) {
  const ExhaustiveResult r = sweep("bch:64/2", 2);
  EXPECT_EQ(r.codeword_bits, 78);
  EXPECT_EQ(r.weights[0].counts.correct, 78u);
  EXPECT_EQ(r.weights[1].counts.correct, 3003u);  // C(78,2)
  EXPECT_EQ(r.total().silent(), 0u);
}

// --- pinned miscorrection census for 3-/4-bit upsets ----------------------
//
// These exact tallies are the contract the report section, the CLI, and
// the policy cost menu quote.  A change here is a decoder change.

TEST(CodesTest, PinnedCensusSecded72) {
  const ExhaustiveResult r = sweep("secded72", 4);
  // Triples never decode clean: each one miscorrects or is detected.
  EXPECT_EQ(r.weights[2].patterns, 59640u);  // C(72,3)
  EXPECT_EQ(r.weights[2].counts.miscorrect, 34164u);
  EXPECT_EQ(r.weights[2].counts.detect_only, 25476u);
  EXPECT_EQ(r.weights[2].counts.sdc, 0u);
  EXPECT_EQ(r.weights[3].patterns, 1028790u);  // C(72,4)
  EXPECT_EQ(r.weights[3].counts.detect_only, 1020249u);
  EXPECT_EQ(r.weights[3].counts.sdc, 8541u);
  EXPECT_EQ(r.weights[3].counts.miscorrect, 0u);
}

TEST(CodesTest, Secded72IsHsiao64x8UnderItsOwnName) {
  // secded72 is the (64, 8) odd-weight-column code; only the name differs,
  // so report rows and the policy menu keep quoting "secded72".
  EXPECT_EQ(make_code("secded72")->name(), "secded72");
  const ExhaustiveResult hsiao = sweep("hsiao:64/8", 4);
  const ExhaustiveResult secded = sweep("secded72", 4);
  ASSERT_EQ(hsiao.weights.size(), secded.weights.size());
  for (std::size_t w = 0; w < hsiao.weights.size(); ++w)
    EXPECT_EQ(hsiao.weights[w], secded.weights[w]) << "weight " << (w + 1);
}

TEST(CodesTest, HsiaoColumnsAreDistinctOddWeight) {
  const HsiaoCode code(64, 8);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t col = code.data_column(i);
    EXPECT_EQ(std::popcount(col) % 2, 1) << "bit " << i;
    EXPECT_NE(std::popcount(col), 1)
        << "unit columns are reserved for check bits";
    EXPECT_TRUE(seen.insert(col).second) << "duplicate column " << col;
  }
}

TEST(CodesTest, PinnedCensusHamming64) {
  const ExhaustiveResult r = sweep("hamming:64", 4);
  EXPECT_EQ(r.weights[2].counts.miscorrect, 45304u);
  EXPECT_EQ(r.weights[2].counts.detect_only, 14336u);
  EXPECT_EQ(r.weights[3].counts.detect_only, 1017464u);
  EXPECT_EQ(r.weights[3].counts.sdc, 11326u);
}

TEST(CodesTest, PinnedCensusBch64T2) {
  const ExhaustiveResult r = sweep("bch:64/2", 4);
  // d_min = 5: no pattern below weight 5 can reach another codeword, so
  // the census shows zero SDC; beyond t the decoder either miscorrects
  // into a radius-2 ball or fails (detected).
  EXPECT_EQ(r.weights[2].counts.miscorrect, 13450u);
  EXPECT_EQ(r.weights[2].counts.detect_only, 62626u);
  EXPECT_EQ(r.weights[2].counts.sdc, 0u);
  EXPECT_EQ(r.weights[3].counts.miscorrect, 247865u);
  EXPECT_EQ(r.weights[3].counts.detect_only, 1178560u);
  EXPECT_EQ(r.weights[3].counts.sdc, 0u);
}

// --- chipkill symbol verdicts and the paper's population mix --------------

TEST(CodesTest, ChipkillVerdictFollowsSymbolsTouched) {
  const auto code = make_code("chipkill");
  struct Case {
    std::uint64_t mask;
    Verdict verdict;
  };
  for (const Case c : {
           Case{0x3, Verdict::kCorrect},      // one nibble
           Case{0xF, Verdict::kCorrect},      // a whole nibble
           Case{0xF0, Verdict::kCorrect},     // an aligned nibble cluster
           Case{0x18, Verdict::kDetectOnly},  // straddles two symbols
           Case{0x11, Verdict::kDetectOnly},  // bits 0 and 4
           Case{0x101, Verdict::kDetectOnly},
           Case{0xF0F0, Verdict::kDetectOnly},
           Case{0x111, Verdict::kSdc},        // three symbols
           Case{~std::uint64_t{0}, Verdict::kSdc},  // all sixteen
       }) {
    EXPECT_EQ(code->evaluate(bit_positions(c.mask)), c.verdict)
        << "mask 0x" << std::hex << c.mask;
  }
  // The aligned-nibble cluster chipkill repairs is beyond SECDED's guarantee.
  EXPECT_NE(make_code("secded72")->evaluate(bit_positions(0xF0)),
            Verdict::kCorrect);
}

TEST(CodesTest, PopulationMixPerScheme) {
  // One single-bit fault, one double, one 4-bit aligned nibble.
  const std::vector<Word> masks = {0x1, 0x8400, 0xF0};
  ThreadPool pool(1);
  const PopulationResult secded =
      evaluate_population(*make_code("secded72"), masks, pool);
  const PopulationResult chipkill =
      evaluate_population(*make_code("chipkill"), masks, pool);
  const auto at = [&](PopulationClass c) -> const VerdictCounts& {
    return secded.by_class[static_cast<std::size_t>(c)];
  };
  EXPECT_EQ(at(PopulationClass::kDoubleBit).total(), 1u);
  EXPECT_EQ(at(PopulationClass::kFewBit).total() +
                at(PopulationClass::kManyBit).total(),
            1u);  // beyond SECDED's guarantee
  EXPECT_EQ(secded.total().correct, 1u);
  EXPECT_GE(secded.total().detect_only, 1u);
  // The aligned-nibble fault is chipkill-correctable.
  EXPECT_EQ(chipkill.total().correct, 2u);
}

TEST(CodesTest, VerdictCountsTallySilentOutcomes) {
  VerdictCounts counts;
  for (const Verdict v : {Verdict::kCorrect, Verdict::kCorrect,
                          Verdict::kDetectOnly, Verdict::kSdc,
                          Verdict::kMiscorrect}) {
    counts.add(v);
  }
  EXPECT_EQ(counts.correct, 2u);
  EXPECT_EQ(counts.detect_only, 1u);
  EXPECT_EQ(counts.total(), 5u);
  EXPECT_EQ(counts.silent(), 2u);  // miscorrect + sdc, never detect_only
  EXPECT_STREQ(to_string(Verdict::kDetectOnly), "detect_only");
  EXPECT_STREQ(to_string(Verdict::kSdc), "sdc");
}

// --- large-codeword EDC-first behaviour -----------------------------------

TEST(LargeCodeTest, GeometryAndFastPath) {
  const LargeBlockCode code(512, 8);
  const CodeGeometry g = code.geometry();
  EXPECT_EQ(g.data_bits, 4096);
  EXPECT_GT(g.check_bits, LargeBlockCode::kEdcBits);
  // Data damage up to t takes the decode path and is repaired.
  EXPECT_EQ(code.evaluate(std::vector<int>{0}), Verdict::kCorrect);
  EXPECT_EQ(code.evaluate(std::vector<int>{5, 900, 4000}), Verdict::kCorrect);
  // A flipped EDC bit is itself correctable.
  EXPECT_EQ(code.evaluate(std::vector<int>{4096}), Verdict::kCorrect);
  // BCH-parity-only damage is invisible to the CRC: the fast path accepts
  // the (intact) data without running the ECC at all.
  const int parity_bit = g.data_bits + LargeBlockCode::kEdcBits;
  EXPECT_EQ(code.edc_syndrome(std::vector<int>{parity_bit}), 0u);
  EXPECT_EQ(code.evaluate(std::vector<int>{parity_bit}), Verdict::kCorrect);
}

TEST(LargeCodeTest, CrcAliasingPatternIsSilentDespiteCorrectableWeight) {
  // Lay the CRC-32 generator polynomial into the data: the EDC syndrome is
  // exactly zero, so the fast path returns the corrupted block untouched —
  // the SDC window the header documents, even though a weight-15 pattern
  // inside one block is something the t=16 BCH could have repaired.
  const LargeBlockCode code(512, 16);
  constexpr std::uint64_t kPoly = 0x104C11DB7ull;  // x^32 + CRC-32 terms
  const int base = 100;
  std::vector<int> pattern;
  for (int j = 32; j >= 0; --j)
    if ((kPoly >> j) & 1u) pattern.push_back(base - j + 32);
  ASSERT_EQ(pattern.size(), 15u);
  ASSERT_EQ(code.edc_syndrome(pattern), 0u);
  EXPECT_EQ(code.evaluate(pattern), Verdict::kSdc);
}

// --- registry contract ----------------------------------------------------

TEST(RegistryTest, DefaultSpecsAllConstruct) {
  for (const std::string& spec : default_code_specs()) {
    std::string error;
    const auto code = make_code(spec, &error);
    ASSERT_NE(code, nullptr) << spec << ": " << error;
    EXPECT_EQ(code->name(), spec);
    EXPECT_GT(code->geometry().data_bits, 0) << spec;
  }
}

TEST(RegistryTest, MalformedSpecsReturnNullWithDiagnostic) {
  for (const char* spec :
       {"", "bogus", "nosuch:64", "hamming:", "hamming:0", "hamming:abc",
        "bch:64", "bch:64/0", "bch:64/999", "hsiao:64/x", "large:777B/8",
        "large:512B/0", "secded72:1"}) {
    std::string error;
    EXPECT_EQ(make_code(spec, &error), nullptr) << spec;
    EXPECT_FALSE(error.empty()) << spec;
    EXPECT_EQ(make_code(spec), nullptr) << spec;  // error sink optional
  }
}

}  // namespace
}  // namespace unp::ecc
