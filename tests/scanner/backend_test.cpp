#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "scanner/pattern.hpp"
#include "scanner/real_backend.hpp"
#include "scanner/sim_backend.hpp"

namespace unp::scanner {
namespace {

using Mismatch = std::pair<std::uint64_t, Word>;

std::vector<Mismatch> collect(MemoryBackend& backend, Word expected, Word next) {
  std::vector<Mismatch> out;
  backend.verify_and_write(expected, next, [&](std::uint64_t w, Word actual) {
    out.emplace_back(w, actual);
  });
  return out;
}

TEST(RealBackend, NontemporalThresholdIsStableAndPositive) {
  const std::size_t t = nontemporal_threshold_bytes();
  EXPECT_GT(t, 0u);
  EXPECT_EQ(t, nontemporal_threshold_bytes());
}

TEST(RealBackend, CleanPassReportsNothing) {
  RealMemoryBackend backend(1 << 16);
  backend.fill(0x00000000u);
  EXPECT_TRUE(collect(backend, 0x00000000u, 0xFFFFFFFFu).empty());
  EXPECT_TRUE(collect(backend, 0xFFFFFFFFu, 0x00000000u).empty());
}

TEST(RealBackend, PokeIsDetectedOnceThenRepaired) {
  RealMemoryBackend backend(1 << 16);
  backend.fill(0xFFFFFFFFu);
  backend.poke(100, 0xFFFF7BFFu);
  const auto first = collect(backend, 0xFFFFFFFFu, 0x00000000u);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], (Mismatch{100, 0xFFFF7BFFu}));
  // The pass rewrote the word: the next check is clean.
  EXPECT_TRUE(collect(backend, 0x00000000u, 0xFFFFFFFFu).empty());
  EXPECT_EQ(backend.peek(100), 0xFFFFFFFFu);
}

TEST(RealBackend, MismatchesReportedInAddressOrder) {
  RealMemoryBackend backend(1 << 16);
  backend.fill(0u);
  backend.poke(500, 1u);
  backend.poke(10, 2u);
  backend.poke(9000, 3u);
  const auto hits = collect(backend, 0u, 0u);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].first, 10u);
  EXPECT_EQ(hits[1].first, 500u);
  EXPECT_EQ(hits[2].first, 9000u);
}

class RealBackendThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RealBackendThreads, ParallelPassMatchesSequential) {
  const std::size_t threads = GetParam();
  RealMemoryBackend seq(1 << 18, 1);
  RealMemoryBackend par(1 << 18, threads);
  seq.fill(0xFFFFFFFFu);
  par.fill(0xFFFFFFFFu);
  RngStream rng(42);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t w = rng.uniform_u64(seq.word_count());
    const auto v = static_cast<Word>(rng.next_u64());
    seq.poke(w, v);
    par.poke(w, v);
  }
  EXPECT_EQ(collect(seq, 0xFFFFFFFFu, 0u), collect(par, 0xFFFFFFFFu, 0u));
}

INSTANTIATE_TEST_SUITE_P(Threads, RealBackendThreads,
                         ::testing::Values(2, 3, 4, 8));

TEST(RealBackend, BorrowedPoolMatchesOwnedPool) {
  // A caller that already holds a pool (e.g. a campaign driver) can lend it
  // instead of paying for a second set of workers.
  ThreadPool pool(3);
  RealMemoryBackend owned(1 << 18, 3);
  RealMemoryBackend borrowed(1 << 18, pool);
  owned.fill(0x00FF00FFu);
  borrowed.fill(0x00FF00FFu);
  RngStream rng(7);
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t w = rng.uniform_u64(owned.word_count());
    const auto v = static_cast<Word>(rng.next_u64());
    owned.poke(w, v);
    borrowed.poke(w, v);
  }
  EXPECT_EQ(collect(owned, 0x00FF00FFu, 0u), collect(borrowed, 0x00FF00FFu, 0u));
  // A second backend can share the same pool concurrently with the first.
  RealMemoryBackend second(1 << 16, pool);
  second.fill(1u);
  EXPECT_TRUE(collect(second, 1u, 2u).empty());
}

TEST(RealBackend, ManyThreadsOnTinyBufferStillCoversEveryWord) {
  // Lane chunks are rounded up to whole cache lines; with 8 workers on 100
  // words most lanes are empty, and every word must still be swept once.
  RealMemoryBackend backend(100 * sizeof(Word), 8);
  backend.fill(0xABCDABCDu);
  backend.poke(0, 1u);
  backend.poke(15, 2u);   // last word of the first cache line
  backend.poke(16, 3u);   // first word of the second
  backend.poke(99, 4u);   // final word
  const auto hits = collect(backend, 0xABCDABCDu, 0u);
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0], (Mismatch{0, 1u}));
  EXPECT_EQ(hits[1], (Mismatch{15, 2u}));
  EXPECT_EQ(hits[2], (Mismatch{16, 3u}));
  EXPECT_EQ(hits[3], (Mismatch{99, 4u}));
  for (std::uint64_t w = 0; w < backend.word_count(); ++w) {
    ASSERT_EQ(backend.peek(w), 0u) << "word " << w << " not rewritten";
  }
}

TEST(RealBackend, MaskedWordsAreUnmapped) {
  // Page retirement on the real backend: masked words are neither read,
  // written, nor reported — and pokes into them are dropped.
  RealMemoryBackend backend(1000 * sizeof(Word), 2);
  backend.fill(0xFFFFFFFFu);
  backend.poke(100, 0x1u);
  backend.poke(200, 0x2u);
  backend.mask_words(90, 20);  // covers word 100, not 200
  auto hits = collect(backend, 0xFFFFFFFFu, 0x00000000u);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], (Mismatch{200, 0x2u}));
  // The masked word was not rewritten by the pass...
  EXPECT_EQ(backend.peek(100), 0x1u);
  // ...nor by fill, and pokes into it are dropped.
  backend.fill(0x77777777u);
  EXPECT_EQ(backend.peek(100), 0x1u);
  EXPECT_EQ(backend.peek(200), 0x77777777u);
  // Word 95 is masked: the first pass never rewrote it, fill skipped it,
  // and this poke is dropped — it still holds the original fill value.
  backend.poke(95, 0xABCDu);
  EXPECT_EQ(backend.peek(95), 0xFFFFFFFFu);
  EXPECT_TRUE(backend.is_masked(95));
  EXPECT_TRUE(collect(backend, 0x77777777u, 0u).empty());
}

TEST(RealBackend, MaskRangesCoalesceAndClampLikeSim) {
  RealMemoryBackend backend(100 * sizeof(Word), 1);
  backend.mask_words(10, 10);
  backend.mask_words(15, 10);
  backend.mask_words(25, 5);
  EXPECT_EQ(backend.masked_word_count(), 20u);
  EXPECT_TRUE(backend.is_masked(10));
  EXPECT_TRUE(backend.is_masked(29));
  EXPECT_FALSE(backend.is_masked(9));
  EXPECT_FALSE(backend.is_masked(30));
  backend.mask_words(95, 50);  // clipped to the word count
  EXPECT_EQ(backend.masked_word_count(), 25u);
  EXPECT_TRUE(backend.is_masked(99));
}

TEST(RealBackend, MaskedSimAndRealReportIdentically) {
  RealMemoryBackend real(512 * sizeof(Word), 2);
  SimulatedMemoryBackend sim(512);
  real.fill(0xFFFFFFFFu);
  sim.fill(0xFFFFFFFFu);
  for (const std::uint64_t w : {5ull, 60ull, 300ull, 501ull}) {
    real.poke(w, 0xFFFF0FFFu);
    sim.inject_transient(w, dram::CellLeakModel::all_discharge(0x0000F000u));
  }
  real.mask_words(50, 16);
  sim.mask_words(50, 16);
  real.mask_words(500, 12);
  sim.mask_words(500, 12);
  EXPECT_EQ(collect(real, 0xFFFFFFFFu, 0u), collect(sim, 0xFFFFFFFFu, 0u));
}

TEST(SimBackend, TransientVisibleOnceThenHealed) {
  SimulatedMemoryBackend backend(1ULL << 30);
  backend.fill(0xFFFFFFFFu);
  backend.inject_transient(12345, dram::CellLeakModel::all_discharge(0x10u));
  const auto hits = collect(backend, 0xFFFFFFFFu, 0x00000000u);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], (Mismatch{12345, 0xFFFFFFEFu}));
  EXPECT_TRUE(collect(backend, 0x00000000u, 0xFFFFFFFFu).empty());
}

TEST(SimBackend, TransientDischargeInvisibleOverZeros) {
  SimulatedMemoryBackend backend(1000);
  backend.fill(0x00000000u);
  backend.inject_transient(7, dram::CellLeakModel::all_discharge(0xFFu));
  EXPECT_TRUE(collect(backend, 0x00000000u, 0xFFFFFFFFu).empty());
}

TEST(SimBackend, StuckReassertsEveryVisiblePhase) {
  SimulatedMemoryBackend backend(1000);
  backend.fill(0x00000000u);
  backend.inject_stuck(3, dram::CellLeakModel::all_discharge(0x1u));
  // Alternating passes: stuck-at-0 is visible whenever 0xFFFFFFFF expected.
  EXPECT_TRUE(collect(backend, 0x00000000u, 0xFFFFFFFFu).empty());
  auto hits = collect(backend, 0xFFFFFFFFu, 0x00000000u);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], (Mismatch{3, 0xFFFFFFFEu}));
  EXPECT_TRUE(collect(backend, 0x00000000u, 0xFFFFFFFFu).empty());
  hits = collect(backend, 0xFFFFFFFFu, 0x00000000u);
  EXPECT_EQ(hits.size(), 1u);
  // After healing, the next write repairs the cell.
  backend.clear_stuck(3);
  EXPECT_EQ(backend.stuck_fault_count(), 0u);
  (void)collect(backend, 0x00000000u, 0xFFFFFFFFu);
  EXPECT_TRUE(collect(backend, 0xFFFFFFFFu, 0x00000000u).empty());
}

TEST(SimBackend, LoadSeesThroughInjections) {
  SimulatedMemoryBackend backend(100);
  backend.fill(0xFFFFFFFFu);
  EXPECT_EQ(backend.load(5), 0xFFFFFFFFu);
  backend.inject_transient(5, dram::CellLeakModel::all_discharge(0xF0u));
  EXPECT_EQ(backend.load(5), 0xFFFFFF0Fu);
}

TEST(SimBackend, MaskedWordsNeverReport) {
  SimulatedMemoryBackend backend(1000);
  backend.fill(0xFFFFFFFFu);
  backend.inject_stuck(100, dram::CellLeakModel::all_discharge(0x1u));
  backend.inject_stuck(200, dram::CellLeakModel::all_discharge(0x1u));
  backend.mask_words(90, 20);  // covers word 100, not 200
  const auto hits = collect(backend, 0xFFFFFFFFu, 0x00000000u);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, 200u);
}

TEST(SimBackend, InjectionsIntoMaskedWordsAreDropped) {
  SimulatedMemoryBackend backend(1000);
  backend.fill(0xFFFFFFFFu);
  backend.mask_words(10, 5);
  backend.inject_transient(12, dram::CellLeakModel::all_discharge(0xFFu));
  backend.inject_stuck(13, dram::CellLeakModel::all_discharge(0xFFu));
  EXPECT_EQ(backend.stuck_fault_count(), 0u);
  EXPECT_TRUE(collect(backend, 0xFFFFFFFFu, 0x00000000u).empty());
}

TEST(SimBackend, MaskRangesCoalesceAndClamp) {
  SimulatedMemoryBackend backend(100);
  backend.mask_words(10, 10);
  backend.mask_words(15, 10);  // overlaps the first range
  backend.mask_words(25, 5);   // adjacent: [10, 30) in total
  EXPECT_EQ(backend.masked_word_count(), 20u);
  EXPECT_TRUE(backend.is_masked(10));
  EXPECT_TRUE(backend.is_masked(29));
  EXPECT_FALSE(backend.is_masked(9));
  EXPECT_FALSE(backend.is_masked(30));
  backend.mask_words(95, 50);  // clipped to the word count
  EXPECT_EQ(backend.masked_word_count(), 25u);
  EXPECT_TRUE(backend.is_masked(99));
}

class BackendEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BackendEquivalence, SimMatchesRealUnderRandomFaultSchedule) {
  // Property: over any random schedule of transient faults and passes, the
  // sparse simulated backend reports exactly what a real buffer would.
  const std::uint64_t seed = GetParam();
  RngStream rng(seed);
  constexpr std::uint64_t kWords = 4096;
  RealMemoryBackend real(kWords * sizeof(Word), 1);
  SimulatedMemoryBackend sim(kWords);
  Pattern pattern(rng.bernoulli(0.5) ? PatternKind::kAlternating
                                     : PatternKind::kCounter);
  real.fill(pattern.written_at(0));
  sim.fill(pattern.written_at(0));

  for (std::uint64_t iter = 1; iter < 60; ++iter) {
    // Inject a few transient faults before the pass.
    const std::uint64_t faults = rng.uniform_u64(4);
    for (std::uint64_t f = 0; f < faults; ++f) {
      const std::uint64_t w = rng.uniform_u64(kWords);
      Word mask = 0;
      const std::uint64_t bits = 1 + rng.uniform_u64(3);
      for (std::uint64_t b = 0; b < bits; ++b) mask |= 1u << rng.uniform_u64(32);
      dram::WordCorruption corruption{
          mask, rng.bernoulli(0.9) ? Word{0} : mask};
      // Real backend: apply to the stored value directly.
      real.poke(w, corruption.apply(real.peek(w)));
      sim.inject_transient(w, corruption);
    }
    const Word expected = pattern.expected_at(iter);
    const Word next = pattern.written_at(iter);
    EXPECT_EQ(collect(real, expected, next), collect(sim, expected, next))
        << "iteration " << iter << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace unp::scanner
