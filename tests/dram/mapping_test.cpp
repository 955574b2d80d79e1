// DramMapping: encode/decode inversion, menu well-formedness, GF(2) helper
// algebra, and the physical-adjacency guarantees the hammer model leans on.
#include "dram/mapping/mapping.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "dram/mapping/gf2.hpp"

namespace unp::dram::mapping {
namespace {

TEST(Gf2, RrefIsCanonicalBasisOfRowSpace) {
  // Two generating sets of the same space reduce to the same basis.
  const std::vector<std::uint64_t> a = {0b1100, 0b0110, 0b1010};
  const std::vector<std::uint64_t> b = {0b0110, 0b1100};
  EXPECT_EQ(gf2_rref(a), gf2_rref(b));
  EXPECT_EQ(gf2_rank(a), 2);

  // Pivots are lowest set bits and appear in exactly one basis vector.
  const auto basis = gf2_rref(a);
  std::uint64_t pivots = 0;
  for (const std::uint64_t v : basis) {
    const std::uint64_t pivot = v & (~v + 1);
    EXPECT_EQ(pivots & pivot, 0u);
    pivots |= pivot;
    for (const std::uint64_t other : basis) {
      if (other != v) {
        EXPECT_EQ(other & pivot, 0u);
      }
    }
  }
  EXPECT_EQ(pivots, gf2_pivot_mask(basis));
}

TEST(Gf2, NullspaceIsOrthogonalComplement) {
  const std::vector<std::uint64_t> rows = {0b100101, 0b010011};
  const int n = 6;
  const auto null = gf2_nullspace(rows, n);
  EXPECT_EQ(static_cast<int>(null.size()), n - gf2_rank(rows));
  for (const std::uint64_t v : null) {
    for (const std::uint64_t r : rows) {
      EXPECT_EQ(gf2_dot(v, r), 0);
    }
  }
  // Free-variable form: one vector per non-pivot bit.
  const std::uint64_t pivots = gf2_pivot_mask(gf2_rref(rows));
  std::set<std::uint64_t> free_bits;
  for (const std::uint64_t v : null) {
    EXPECT_TRUE(free_bits.insert(v & ~pivots).second);
    EXPECT_EQ(std::popcount(v & ~pivots), 1);
  }
}

TEST(Mapping, MenuConfigsAreWellFormed) {
  for (const std::string& name : mapping_menu()) {
    SCOPED_TRACE(name);
    const DramMapping mapping{make_mapping_config(name)};
    EXPECT_EQ(mapping.config().name, name);
    EXPECT_EQ(mapping.total_words(),
              mapping.banks() * mapping.rows() * mapping.columns());
  }
  EXPECT_THROW((void)make_mapping_config("ddr9:7ch"), ContractViolation);
}

TEST(Mapping, EncodeDecodeRoundTripsEveryMenuGeometry) {
  RngStream rng(7);
  for (const std::string& name : mapping_menu()) {
    SCOPED_TRACE(name);
    const DramMapping mapping{make_mapping_config(name)};
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t addr = rng.uniform_u64(mapping.total_words());
      const DramCoordinate c = mapping.decode(addr);
      EXPECT_LT(c.bank, mapping.banks());
      EXPECT_LT(c.row, mapping.rows());
      EXPECT_LT(c.column, mapping.columns());
      EXPECT_EQ(mapping.encode(c), addr);
    }
    for (int i = 0; i < 2000; ++i) {
      DramCoordinate c;
      c.bank = static_cast<std::uint32_t>(rng.uniform_u64(mapping.banks()));
      c.row = rng.uniform_u64(mapping.rows());
      c.column = rng.uniform_u64(mapping.columns());
      EXPECT_EQ(mapping.decode(mapping.encode(c)), c);
    }
  }
}

/// Definitional decode: walk the address one bit at a time, appending each
/// row/column bit to its field in mask order, and take every bank bit as
/// the parity of the address under its function's full mask.
DramCoordinate reference_decode(const MappingConfig& config,
                                std::uint64_t addr) {
  DramCoordinate c;
  int row_bit = 0;
  int column_bit = 0;
  for (int b = 0; b < 64; ++b) {
    const std::uint64_t bit = (addr >> b) & 1;
    if ((config.row_mask >> b) & 1) c.row |= bit << row_bit++;
    if ((config.column_mask >> b) & 1) c.column |= bit << column_bit++;
  }
  for (std::size_t k = 0; k < config.bank_functions.size(); ++k) {
    int parity = 0;
    for (int b = 0; b < 64; ++b) {
      if ((config.bank_functions[k].mask() >> b) & 1) {
        parity ^= static_cast<int>((addr >> b) & 1);
      }
    }
    c.bank |= static_cast<std::uint32_t>(parity) << k;
  }
  return c;
}

/// A valid geometry whose row and column masks are each several runs of
/// bits, so the gather/scatter crosses run boundaries (every menu geometry
/// has contiguous masks).
MappingConfig interleaved_config() {
  MappingConfig c;
  c.name = "interleaved";
  c.address_bits = 12;
  c.column_mask = 0b0001'0100'0111;  // bits 0-2, 6, 8
  c.row_mask = 0b1110'1010'0000;     // bits 5, 7, 9-11
  c.bank_functions = {{3, (1u << 6) | (1u << 9)}, {4, 1u << 11}};
  return c;
}

TEST(Mapping, DecodeMatchesPerBitReference) {
  RngStream rng(19);
  std::vector<MappingConfig> configs;
  for (const std::string& name : mapping_menu()) {
    configs.push_back(make_mapping_config(name));
  }
  configs.push_back(interleaved_config());
  for (const MappingConfig& config : configs) {
    SCOPED_TRACE(config.name);
    const DramMapping mapping{config};
    const std::uint64_t top = mapping.total_words() - 1;
    for (const std::uint64_t addr : {std::uint64_t{0}, top, top - 1}) {
      EXPECT_EQ(mapping.decode(addr), reference_decode(config, addr));
    }
    for (int i = 0; i < 5000; ++i) {
      // In-space addresses, then arbitrary 64-bit ones: bits above the
      // address space belong to no mask and must be ignored.
      const std::uint64_t addr = i % 2 == 0
                                     ? rng.uniform_u64(mapping.total_words())
                                     : rng.next_u64();
      const DramCoordinate c = mapping.decode(addr);
      EXPECT_EQ(c, reference_decode(config, addr));
      EXPECT_EQ(mapping.encode(c), addr & top);
    }
  }
}

TEST(Mapping, AdjacentRowsShareBankAndDifferOnlyInRow) {
  // The hammer victim model flips rows +-1 around an aggressor within the
  // same bank; encode must honor that adjacency for every geometry.
  RngStream rng(11);
  for (const std::string& name : mapping_menu()) {
    SCOPED_TRACE(name);
    const DramMapping mapping{make_mapping_config(name)};
    for (int i = 0; i < 500; ++i) {
      DramCoordinate c;
      c.bank = static_cast<std::uint32_t>(rng.uniform_u64(mapping.banks()));
      c.row = 1 + rng.uniform_u64(mapping.rows() - 2);
      c.column = rng.uniform_u64(mapping.columns());
      for (const std::int64_t delta : {-1, +1}) {
        DramCoordinate v = c;
        v.row = c.row + static_cast<std::uint64_t>(delta);
        const DramCoordinate back = mapping.decode(mapping.encode(v));
        EXPECT_EQ(back.bank, c.bank);
        EXPECT_EQ(back.row, c.row + static_cast<std::uint64_t>(delta));
        EXPECT_EQ(back.column, c.column);
      }
    }
  }
}

TEST(Mapping, CanonicalBankFunctionsAreStableUnderRowMixing) {
  // Replacing one function with its XOR against another changes the
  // representation but not the addressing scheme; the canonical basis
  // must not change.
  MappingConfig config = make_mapping_config("ddr3:1ch");
  const DramMapping original{config};
  MappingConfig mixed = config;
  // fn0 ^= fn1's fold (select bits must stay dedicated, so mix fold masks
  // and express the same span by folding fn1's taps into fn0)...
  mixed.bank_functions[0].fold_mask ^=
      mixed.bank_functions[1].fold_mask |
      (std::uint64_t{1} << mixed.bank_functions[1].select_bit);
  // ...which is no longer a valid *config* (fold touches a select bit), so
  // compare spans directly at the GF(2) level instead of constructing it.
  std::vector<std::uint64_t> masks;
  for (const BankFunction& fn : mixed.bank_functions) masks.push_back(fn.mask());
  EXPECT_EQ(gf2_rref(masks), original.canonical_bank_functions());
}

TEST(Mapping, RejectsIllFormedConfigs) {
  MappingConfig config = make_mapping_config("ddr3:1ch");
  config.row_mask |= config.column_mask & 1;  // overlap
  EXPECT_THROW(DramMapping{config}, ContractViolation);

  config = make_mapping_config("ddr3:1ch");
  config.bank_functions[0].select_bit = config.bank_functions[1].select_bit;
  EXPECT_THROW(DramMapping{config}, ContractViolation);

  config = make_mapping_config("ddr3:1ch");
  config.bank_functions[0].fold_mask =
      std::uint64_t{1} << config.bank_functions[1].select_bit;
  EXPECT_THROW(DramMapping{config}, ContractViolation);

  config = make_mapping_config("ddr3:1ch");
  config.row_mask &= ~(config.row_mask & (~config.row_mask + 1));  // gap
  EXPECT_THROW(DramMapping{config}, ContractViolation);
}

}  // namespace
}  // namespace unp::dram::mapping
