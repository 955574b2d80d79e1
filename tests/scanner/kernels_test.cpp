// Kernel-equivalence suite: every ISA path the CPU supports must be
// observationally identical to the scalar oracle — same mismatch stream
// (order and values), same final buffer — for every alignment, every
// head/tail residue, planted faults exactly on vector and lane boundaries,
// and the masked sweep against a plain mask loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "scanner/kernels/kernels.hpp"

namespace unp::scanner::kernels {
namespace {

using Hits = std::vector<Hit>;

/// The reference semantics, written as naively as possible.
void oracle_verify(Word* data, std::size_t n, std::uint64_t base, Word expected,
                   Word next, Hits& out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (data[i] != expected) out.push_back({base + i, data[i]});
    data[i] = next;
  }
}

struct KernelRun {
  Hits hits;
  std::vector<Word> buffer;
};

KernelRun run_kernel(const Kernels& k, const std::vector<Word>& input,
               std::size_t offset, std::uint64_t base, Word expected,
               Word next, bool nontemporal) {
  std::vector<Word> buf = input;
  KernelRun r;
  k.verify_and_write(buf.data() + offset, buf.size() - offset, base, expected,
                     next, nontemporal, r.hits);
  r.buffer = std::move(buf);
  return r;
}

// Set selection (isa field, name, active latch) is checked once for every
// family in tests/common/simd_dispatch_test.cpp; this pins the set contents.
TEST(KernelSets, EveryIsaSetIsComplete) {
  for (const simd::Isa isa : simd::supported_isas()) {
    const Kernels& k = kernels_for(isa);
    EXPECT_NE(k.fill, nullptr);
    EXPECT_NE(k.verify_and_write, nullptr);
  }
}

class KernelEquivalence : public ::testing::TestWithParam<simd::Isa> {
 protected:
  void SetUp() override {
    if (!simd::is_supported(GetParam())) GTEST_SKIP() << "ISA not supported here";
  }
};

TEST_P(KernelEquivalence, RandomizedBuffersMatchScalarOracle) {
  const Kernels& k = kernels_for(GetParam());
  RngStream rng(2024);
  for (int round = 0; round < 40; ++round) {
    const std::size_t offset = rng.uniform_u64(8);  // break 32-byte alignment
    const std::size_t n = 1 + rng.uniform_u64(5000);
    const Word expected = static_cast<Word>(rng.next_u64());
    const Word next = static_cast<Word>(rng.next_u64());
    const std::uint64_t base = rng.uniform_u64(1 << 20);
    const bool nontemporal = rng.bernoulli(0.5);

    std::vector<Word> input(n + offset, expected);
    const std::uint64_t plants = rng.uniform_u64(12);
    for (std::uint64_t p = 0; p < plants; ++p) {
      input[offset + rng.uniform_u64(n)] ^= static_cast<Word>(rng.next_u64());
    }

    std::vector<Word> want_buf = input;
    Hits want_hits;
    oracle_verify(want_buf.data() + offset, n, base, expected, next,
                  want_hits);

    const KernelRun got = run_kernel(k, input, offset, base, expected, next,
                               nontemporal);
    EXPECT_EQ(got.hits, want_hits) << "round " << round << " n=" << n
                                   << " offset=" << offset;
    EXPECT_EQ(got.buffer, want_buf) << "round " << round;
  }
}

TEST_P(KernelEquivalence, MismatchesAtVectorAndLaneBoundaries) {
  const Kernels& k = kernels_for(GetParam());
  // 16 words per kernel block; plant exactly at every boundary a 4/8/16-wide
  // vector could mis-handle, plus the final words of the tail.
  const std::size_t n = 256;
  const std::vector<std::size_t> plants{0,  1,  3,  4,  7,  8,   15,  16,
                                        17, 31, 32, 63, 64, 127, 128, 240,
                                        241, 254, 255};
  for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                   std::size_t{3}, std::size_t{7}}) {
    std::vector<Word> input(n + offset, 0xAAAAAAAAu);
    for (const std::size_t p : plants) input[offset + p] = 0x55555555u;

    const KernelRun got =
        run_kernel(k, input, offset, 1000, 0xAAAAAAAAu, 0x33333333u, false);
    ASSERT_EQ(got.hits.size(), plants.size()) << "offset " << offset;
    for (std::size_t i = 0; i < plants.size(); ++i) {
      EXPECT_EQ(got.hits[i].index, 1000 + plants[i]);
      EXPECT_EQ(got.hits[i].actual, 0x55555555u);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got.buffer[offset + i], 0x33333333u) << "word " << i;
    }
  }
}

TEST_P(KernelEquivalence, EveryHeadTailResidue) {
  const Kernels& k = kernels_for(GetParam());
  // n mod 16 in {0..15}: the tail loop must cover every residue, and an
  // all-mismatch buffer forces the slow path everywhere.
  for (std::size_t residue = 0; residue < 16; ++residue) {
    const std::size_t n = 64 + residue;
    for (const std::size_t offset : {std::size_t{0}, std::size_t{5}}) {
      std::vector<Word> input(n + offset, 0x12345678u);
      const KernelRun got =
          run_kernel(k, input, offset, 7, 0x9ABCDEF0u, 0x11111111u, false);
      ASSERT_EQ(got.hits.size(), n) << "residue " << residue;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got.hits[i].index, 7 + i);
        EXPECT_EQ(got.hits[i].actual, 0x12345678u);
        EXPECT_EQ(got.buffer[offset + i], 0x11111111u);
      }
    }
  }
}

TEST_P(KernelEquivalence, FillMatchesScalarForAllResidues) {
  const Kernels& k = kernels_for(GetParam());
  for (std::size_t residue = 0; residue < 16; ++residue) {
    const std::size_t n = 48 + residue;
    for (const bool nontemporal : {false, true}) {
      std::vector<Word> buf(n + 3, 0xDEADBEEFu);
      k.fill(buf.data() + 3, n, 0x0F0F0F0Fu, nontemporal);
      for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(buf[i], 0xDEADBEEFu);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(buf[3 + i], 0x0F0F0F0Fu);
    }
  }
}

TEST_P(KernelEquivalence, MaskedSweepMatchesScalarMaskLoop) {
  const Kernels& k = kernels_for(GetParam());
  RngStream rng(77);
  for (int round = 0; round < 25; ++round) {
    const std::size_t n = 200 + rng.uniform_u64(800);
    const std::uint64_t base = 100 + rng.uniform_u64(5000);
    IntervalSet masked;
    const std::uint64_t ranges = rng.uniform_u64(6);
    for (std::uint64_t r = 0; r < ranges; ++r) {
      // Some ranges straddle the window edges or sit entirely outside it.
      const std::uint64_t start = base + rng.uniform_u64(n + 40) - 20;
      masked.insert(start, 1 + rng.uniform_u64(60));
    }

    std::vector<Word> input(n);
    for (auto& w : input) w = rng.bernoulli(0.2)
                                   ? static_cast<Word>(rng.next_u64())
                                   : 0xCAFEBABEu;

    // Reference: the plain per-word mask loop.
    std::vector<Word> want_buf = input;
    Hits want_hits;
    for (std::size_t i = 0; i < n; ++i) {
      if (masked.contains(base + i)) continue;  // unmapped: untouched
      if (want_buf[i] != 0xCAFEBABEu) want_hits.push_back({base + i, want_buf[i]});
      want_buf[i] = 0x0BADF00Du;
    }

    std::vector<Word> got_buf = input;
    Hits got_hits;
    masked_verify_and_write(k, got_buf.data(), n, base, 0xCAFEBABEu,
                            0x0BADF00Du, false, masked, got_hits);
    EXPECT_EQ(got_hits, want_hits) << "round " << round;
    EXPECT_EQ(got_buf, want_buf) << "round " << round;

    // Masked fill over the same decomposition: gaps filled, masks untouched.
    std::vector<Word> fill_buf = input;
    masked_fill(k, fill_buf.data(), n, base, 0x77777777u, false, masked);
    for (std::size_t i = 0; i < n; ++i) {
      if (masked.contains(base + i)) {
        EXPECT_EQ(fill_buf[i], input[i]) << "masked word written";
      } else {
        EXPECT_EQ(fill_buf[i], 0x77777777u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, KernelEquivalence,
                         ::testing::Values(simd::Isa::kScalar,
                                           simd::Isa::kSse2, simd::Isa::kAvx2,
                                           simd::Isa::kNeon),
                         [](const auto& param_info) {
                           return std::string(simd::to_string(param_info.param));
                         });

TEST(IntervalSetTest, CoalescesOverlapsAndAdjacency) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  s.insert(10, 10);
  s.insert(15, 10);  // overlap
  s.insert(25, 5);   // adjacent
  EXPECT_EQ(s.ranges().size(), 1u);
  EXPECT_EQ(s.total(), 20u);
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(29));
  EXPECT_FALSE(s.contains(9));
  EXPECT_FALSE(s.contains(30));
  s.insert(50, 0);  // no-op
  EXPECT_EQ(s.total(), 20u);
  s.insert(40, 5);
  EXPECT_EQ(s.ranges().size(), 2u);
  s.insert(28, 14);  // bridges both
  EXPECT_EQ(s.ranges().size(), 1u);
  EXPECT_EQ(s.total(), 35u);
}

TEST(IntervalSetTest, GapWalkDecomposesExactly) {
  IntervalSet s;
  s.insert(10, 5);   // [10, 15)
  s.insert(20, 10);  // [20, 30)
  std::vector<std::pair<std::uint64_t, std::uint64_t>> gaps;
  s.for_each_gap(0, 40, [&](std::uint64_t a, std::uint64_t b) {
    gaps.emplace_back(a, b);
  });
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want{
      {0, 10}, {15, 20}, {30, 40}};
  EXPECT_EQ(gaps, want);

  // Window starting inside a range.
  gaps.clear();
  s.for_each_gap(12, 25, [&](std::uint64_t a, std::uint64_t b) {
    gaps.emplace_back(a, b);
  });
  EXPECT_EQ(gaps, (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                      {15, 20}}));

  // Fully covered window: no gaps.
  gaps.clear();
  s.for_each_gap(21, 29, [&](std::uint64_t a, std::uint64_t b) {
    gaps.emplace_back(a, b);
  });
  EXPECT_TRUE(gaps.empty());

  // Empty set: one gap, the whole window.
  IntervalSet empty;
  gaps.clear();
  empty.for_each_gap(5, 9, [&](std::uint64_t a, std::uint64_t b) {
    gaps.emplace_back(a, b);
  });
  EXPECT_EQ(gaps, (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                      {5, 9}}));
}

/// Canonical-form invariants after any churn: ranges strictly ascending,
/// pairwise disjoint, never abutting (adjacency must have coalesced), and
/// total() equal to the summed widths.
void expect_canonical(const IntervalSet& s) {
  std::uint64_t total = 0;
  std::uint64_t prev_end = 0;
  bool first = true;
  for (const auto& [begin, end] : s.ranges()) {
    ASSERT_LT(begin, end);
    if (!first) {
      // A zero-width gap between stored ranges means a missed coalesce.
      ASSERT_GT(begin, prev_end);
    }
    total += end - begin;
    prev_end = end;
    first = false;
  }
  EXPECT_EQ(total, s.total());
}

TEST(IntervalSetTest, AdversarialChurnKeepsGapWalkCanonical) {
  // Retirement churn as the closed loop produces it: pages retired out of
  // order, re-retired, nested inside earlier retirements, and abutting
  // them exactly.  A bitmap over a small universe is the oracle.
  constexpr std::uint64_t kUniverse = 512;
  IntervalSet s;
  std::vector<bool> bitmap(kUniverse, false);

  const auto insert_both = [&](std::uint64_t first, std::uint64_t count) {
    s.insert(first, count);
    for (std::uint64_t x = first; x < first + count; ++x) bitmap[x] = true;
    expect_canonical(s);
  };
  const auto expect_matches_bitmap = [&] {
    for (std::uint64_t x = 0; x < kUniverse; ++x) {
      ASSERT_EQ(s.contains(x), bitmap[x]) << "word " << x;
    }
    // The gap walk must decompose [0, kUniverse) into exactly the maximal
    // uncovered runs of the bitmap, in order, with no empty or split gaps.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> gaps;
    s.for_each_gap(0, kUniverse, [&](std::uint64_t a, std::uint64_t b) {
      gaps.emplace_back(a, b);
    });
    std::vector<std::pair<std::uint64_t, std::uint64_t>> want;
    for (std::uint64_t x = 0; x < kUniverse; ++x) {
      if (bitmap[x]) continue;
      if (!want.empty() && want.back().second == x) {
        ++want.back().second;
      } else {
        want.emplace_back(x, x + 1);
      }
    }
    ASSERT_EQ(gaps, want);
  };

  // Round 1: scattered seeds.
  insert_both(100, 20);
  insert_both(300, 40);
  insert_both(10, 5);
  expect_matches_bitmap();

  // Round 2: fully nested inside existing ranges (must be no-ops on the
  // range structure) and exact abutments on both sides.
  insert_both(105, 5);   // nested in [100,120)
  insert_both(300, 40);  // exact duplicate
  insert_both(310, 1);   // single word, nested
  EXPECT_EQ(s.ranges().size(), 3u);
  insert_both(120, 30);  // abuts [100,120) on the right
  insert_both(95, 5);    // abuts the merged [95,150) on the left
  insert_both(290, 10);  // abuts [300,340) on the left
  EXPECT_EQ(s.ranges().size(), 3u);
  expect_matches_bitmap();

  // Round 3: one insert bridging everything, then churn nested inside it.
  insert_both(14, 280);  // swallows [10,15) tail, [95,150), touches [290..)
  insert_both(0, 10);
  insert_both(200, 50);  // fully nested in the merged giant
  expect_matches_bitmap();

  // Round 4: deterministic pseudo-random churn, re-checking the full
  // decomposition after every insert batch.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int round = 0; round < 200; ++round) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t first = (state >> 33) % kUniverse;
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t count =
        std::min<std::uint64_t>((state >> 33) % 32, kUniverse - first);
    insert_both(first, count);
    if (round % 20 == 19) expect_matches_bitmap();
  }
  expect_matches_bitmap();
}

}  // namespace
}  // namespace unp::scanner::kernels
