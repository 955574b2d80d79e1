#include "ecc/engine.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace unp::ecc {

std::uint64_t binomial(int n, int k) noexcept {
  if (k < 0 || n < 0 || k > n) return 0;
  if (k > n - k) k = n - k;
  std::uint64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    const std::uint64_t factor = static_cast<std::uint64_t>(n - k + i);
    // result * factor / i is exact; saturate (conservatively, before the
    // division can pull the product back down) on u64 overflow.  Callers
    // treat UINT64_MAX as "too big to enumerate".
    if (result > UINT64_MAX / factor) return UINT64_MAX;
    result = result * factor / static_cast<std::uint64_t>(i);
  }
  return result;
}

void unrank_combination(std::uint64_t rank, int n, int k, std::span<int> out) {
  UNP_REQUIRE(static_cast<int>(out.size()) == k);
  UNP_REQUIRE(rank < binomial(n, k));
  int x = 0;
  for (int i = 0; i < k; ++i) {
    // Skip leading elements whose block of combinations lies before rank.
    for (;;) {
      const std::uint64_t block = binomial(n - 1 - x, k - 1 - i);
      if (rank < block) break;
      rank -= block;
      ++x;
    }
    out[static_cast<std::size_t>(i)] = x;
    ++x;
  }
}

bool next_combination(std::span<int> combo, int n) noexcept {
  const int k = static_cast<int>(combo.size());
  int i = k - 1;
  while (i >= 0 && combo[static_cast<std::size_t>(i)] == n - k + i) --i;
  if (i < 0) return false;
  ++combo[static_cast<std::size_t>(i)];
  for (int j = i + 1; j < k; ++j) {
    combo[static_cast<std::size_t>(j)] =
        combo[static_cast<std::size_t>(j - 1)] + 1;
  }
  return true;
}

VerdictCounts ExhaustiveResult::total() const noexcept {
  VerdictCounts sum;
  for (const ExhaustiveWeightResult& w : weights) sum.add(w.counts);
  return sum;
}

std::uint64_t ExhaustiveResult::total_patterns() const noexcept {
  std::uint64_t sum = 0;
  for (const ExhaustiveWeightResult& w : weights) sum += w.patterns;
  return sum;
}

ExhaustiveResult evaluate_exhaustive(const Code& code, int max_weight,
                                     ThreadPool& pool) {
  const CodeGeometry geom = code.geometry();
  const int n = geom.codeword_bits;
  UNP_REQUIRE(max_weight >= 1 && max_weight <= n);

  ExhaustiveResult result;
  result.code = std::string(code.name());
  result.codeword_bits = n;
  result.max_weight = max_weight;

  for (int k = 1; k <= max_weight; ++k) {
    const std::uint64_t total = binomial(n, k);
    UNP_REQUIRE(total < UINT64_MAX);  // not saturated: workload is countable

    // Cut the rank space into contiguous stripes.  More stripes than
    // workers keeps the pool busy when verdict cost varies across the
    // space (e.g. BCH's expensive >t patterns cluster); counts are
    // additive u64s, so the stripe count never changes the totals.
    const std::uint64_t max_stripes =
        std::max<std::uint64_t>(1, pool.thread_count() * 8);
    const std::uint64_t stripes = std::min(total, max_stripes);
    const std::uint64_t per_stripe = total / stripes;
    const std::uint64_t remainder = total % stripes;

    std::vector<VerdictCounts> stripe_counts(
        static_cast<std::size_t>(stripes));
    pool.parallel_for(
        static_cast<std::size_t>(stripes), [&](std::size_t s) {
          // Stripe s covers ranks [first, first + span): the first
          // `remainder` stripes take one extra pattern each.
          const std::uint64_t first =
              s * per_stripe + std::min<std::uint64_t>(s, remainder);
          const std::uint64_t span = per_stripe + (s < remainder ? 1 : 0);
          std::vector<int> combo(static_cast<std::size_t>(k));
          unrank_combination(first, n, k, combo);
          VerdictCounts local;
          for (std::uint64_t i = 0; i < span; ++i) {
            local.add(code.evaluate(combo));
            if (i + 1 < span) next_combination(combo, n);
          }
          stripe_counts[s] = local;
        });

    ExhaustiveWeightResult w;
    w.weight = k;
    w.patterns = total;
    for (const VerdictCounts& c : stripe_counts) w.counts.add(c);
    result.weights.push_back(w);
  }
  return result;
}

const char* to_string(PopulationClass c) noexcept {
  switch (c) {
    case PopulationClass::kSingleBit: return "single";
    case PopulationClass::kDoubleBit: return "double";
    case PopulationClass::kFewBit: return "few";
    case PopulationClass::kManyBit: return "many";
  }
  return "unknown";
}

VerdictCounts PopulationResult::total() const noexcept {
  VerdictCounts sum;
  for (const VerdictCounts& c : by_class) sum.add(c);
  return sum;
}

double PopulationResult::silent_fraction() const noexcept {
  return faults > 0
             ? static_cast<double>(total().silent()) / static_cast<double>(faults)
             : 0.0;
}

PopulationResult evaluate_population(const Code& code,
                                     std::span<const Word> masks,
                                     ThreadPool& pool) {
  // Scanner masks occupy 32 bits; the code's data field must hold them.
  UNP_REQUIRE(code.geometry().data_bits >= kPopulationWordBits);

  PopulationResult result;
  result.code = std::string(code.name());

  const std::size_t stripes =
      std::max<std::size_t>(1, std::min(masks.size(), pool.thread_count() * 4));
  const std::size_t per_stripe = masks.size() / stripes;
  const std::size_t remainder = masks.size() % stripes;

  struct StripeTally {
    std::array<VerdictCounts, kPopulationClassCount> by_class;
    std::uint64_t faults = 0;
  };
  std::vector<StripeTally> tallies(stripes);
  pool.parallel_for(stripes, [&](std::size_t s) {
    const std::size_t first = s * per_stripe + std::min(s, remainder);
    const std::size_t span = per_stripe + (s < remainder ? 1 : 0);
    StripeTally local;
    for (std::size_t i = first; i < first + span; ++i) {
      const Word mask = masks[i];
      if (mask == 0) continue;  // no corruption to evaluate
      const std::vector<int> bits = set_bit_positions(mask);
      const PopulationClass cls =
          classify_population_bits(static_cast<int>(bits.size()));
      local.by_class[static_cast<std::size_t>(cls)].add(code.evaluate(bits));
      ++local.faults;
    }
    tallies[s] = local;
  });

  for (const StripeTally& t : tallies) {
    result.faults += t.faults;
    for (int c = 0; c < kPopulationClassCount; ++c) {
      result.by_class[static_cast<std::size_t>(c)].add(
          t.by_class[static_cast<std::size_t>(c)]);
    }
  }
  return result;
}

}  // namespace unp::ecc
