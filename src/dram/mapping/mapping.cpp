#include "dram/mapping/mapping.hpp"

#include <bit>

#include "common/require.hpp"
#include "dram/mapping/gf2.hpp"

namespace unp::dram::mapping {

namespace {

/// Pack the bits of `value` selected by `mask` into a dense integer
/// (portable PEXT).  One step per contiguous run of mask bits; nothing
/// branches on `value`.
std::uint64_t extract_bits(std::uint64_t value, std::uint64_t mask) noexcept {
  std::uint64_t out = 0;
  int shift = 0;
  while (mask != 0) {
    const int lo = std::countr_zero(mask);
    const int len = std::countr_one(mask >> lo);
    const std::uint64_t run = ~std::uint64_t{0} >> (64 - len);
    out |= ((value >> lo) & run) << shift;
    shift += len;
    mask &= ~(run << lo);
  }
  return out;
}

/// Scatter the low bits of `value` into the positions of `mask`
/// (portable PDEP), one contiguous run of mask bits per step.
std::uint64_t deposit_bits(std::uint64_t value, std::uint64_t mask) noexcept {
  std::uint64_t out = 0;
  while (mask != 0) {
    const int lo = std::countr_zero(mask);
    const int len = std::countr_one(mask >> lo);
    const std::uint64_t run = ~std::uint64_t{0} >> (64 - len);
    out |= (value & run) << lo;
    value = (value >> (len - 1)) >> 1;  // len may be 64
    mask &= ~(run << lo);
  }
  return out;
}

}  // namespace

DramMapping::DramMapping(MappingConfig config) : config_(std::move(config)) {
  UNP_REQUIRE(config_.address_bits > 0 && config_.address_bits < 63);
  UNP_REQUIRE(config_.bank_functions.size() < 32);
  const std::uint64_t space =
      (std::uint64_t{1} << config_.address_bits) - 1;
  UNP_REQUIRE((config_.row_mask & config_.column_mask) == 0);
  UNP_REQUIRE((config_.row_mask | config_.column_mask) ==
              ((config_.row_mask | config_.column_mask) & space));
  std::uint64_t selects = 0;
  for (const BankFunction& fn : config_.bank_functions) {
    UNP_REQUIRE(fn.select_bit >= 0 && fn.select_bit < config_.address_bits);
    const std::uint64_t select = std::uint64_t{1} << fn.select_bit;
    UNP_REQUIRE((selects & select) == 0);                  // dedicated
    UNP_REQUIRE(((config_.row_mask | config_.column_mask) & select) == 0);
    UNP_REQUIRE((fn.fold_mask & ~(config_.row_mask | config_.column_mask)) == 0);
    selects |= select;
  }
  // Row, column and select bits partition the physical address.
  UNP_REQUIRE((config_.row_mask | config_.column_mask | selects) == space);
}

DramCoordinate DramMapping::decode(std::uint64_t word_addr) const noexcept {
  DramCoordinate c;
  c.row = extract_bits(word_addr, config_.row_mask);
  c.column = extract_bits(word_addr, config_.column_mask);
  for (std::size_t k = 0; k < config_.bank_functions.size(); ++k) {
    c.bank |= static_cast<std::uint32_t>(
                  gf2_dot(word_addr, config_.bank_functions[k].mask()))
              << k;
  }
  return c;
}

std::uint64_t DramMapping::encode(const DramCoordinate& c) const noexcept {
  std::uint64_t addr = deposit_bits(c.row, config_.row_mask) |
                       deposit_bits(c.column, config_.column_mask);
  for (std::size_t k = 0; k < config_.bank_functions.size(); ++k) {
    const BankFunction& fn = config_.bank_functions[k];
    const int want = static_cast<int>((c.bank >> k) & 1);
    // fold_mask touches only row/column bits, all already placed.
    if (want != gf2_dot(addr, fn.fold_mask)) {
      addr |= std::uint64_t{1} << fn.select_bit;
    }
  }
  return addr;
}

std::uint64_t DramMapping::rows() const noexcept {
  return std::uint64_t{1} << std::popcount(config_.row_mask);
}

std::uint64_t DramMapping::columns() const noexcept {
  return std::uint64_t{1} << std::popcount(config_.column_mask);
}

std::vector<std::uint64_t> DramMapping::canonical_bank_functions() const {
  std::vector<std::uint64_t> masks;
  masks.reserve(config_.bank_functions.size());
  for (const BankFunction& fn : config_.bank_functions) {
    masks.push_back(fn.mask());
  }
  return gf2_rref(std::move(masks));
}

namespace {

/// Contiguous mask of `count` bits starting at `lo`.
constexpr std::uint64_t bits(int lo, int count) {
  return ((std::uint64_t{1} << count) - 1) << lo;
}

MappingConfig ddr3_1ch() {
  // 512 MiB of words: 16 banks (incl. rank) x 8K rows x 1K columns.
  MappingConfig c;
  c.name = "ddr3:1ch";
  c.address_bits = 27;
  c.column_mask = bits(0, 10);
  c.row_mask = bits(14, 13);
  c.bank_functions = {{10, bits(17, 1)},
                      {11, bits(18, 1)},
                      {12, bits(19, 1)},
                      {13, bits(20, 1)}};  // rank
  return c;
}

MappingConfig ddr3_2ch() {
  MappingConfig c;
  c.name = "ddr3:2ch";
  c.address_bits = 28;
  c.column_mask = bits(0, 10);
  c.row_mask = bits(15, 13);
  // The channel function folds a column bit (classic low-bit channel
  // interleave) alongside a row bit.
  c.bank_functions = {{10, bits(6, 1) | bits(18, 1)},  // channel
                      {11, bits(17, 1)},
                      {12, bits(18, 1)},
                      {13, bits(19, 1)},
                      {14, bits(20, 1)}};  // rank
  return c;
}

MappingConfig ddr4_1ch() {
  MappingConfig c;
  c.name = "ddr4:1ch";
  c.address_bits = 28;
  c.column_mask = bits(0, 10);
  c.row_mask = bits(15, 13);
  // Bank-group and bank functions each fold two row bits (deep XOR
  // scrambling, as on Skylake-era controllers).
  c.bank_functions = {{10, bits(16, 1) | bits(20, 1)},  // bg0
                      {11, bits(17, 1) | bits(21, 1)},  // bg1
                      {12, bits(18, 1) | bits(22, 1)},  // ba0
                      {13, bits(19, 1) | bits(23, 1)},  // ba1
                      {14, bits(24, 1)}};               // rank
  return c;
}

MappingConfig ddr4_2ch() {
  MappingConfig c;
  c.name = "ddr4:2ch";
  c.address_bits = 29;
  c.column_mask = bits(0, 10);
  c.row_mask = bits(16, 13);
  c.bank_functions = {{10, bits(7, 1) | bits(17, 1) | bits(22, 1)},  // channel
                      {11, bits(18, 1) | bits(23, 1)},               // bg0
                      {12, bits(19, 1) | bits(24, 1)},               // bg1
                      {13, bits(20, 1) | bits(25, 1)},               // ba0
                      {14, bits(21, 1) | bits(26, 1)},               // ba1
                      {15, bits(27, 1)}};                            // rank
  return c;
}

MappingConfig lpddr3_mb() {
  // The Mont-Blanc node module: 2 ranks x 8 banks x 64K rows x 1K columns
  // of 32-bit words = 4 GiB, matching dram::Geometry's defaults.
  MappingConfig c;
  c.name = "lpddr3:mb";
  c.address_bits = 30;
  c.column_mask = bits(0, 10);
  c.row_mask = bits(14, 16);
  c.bank_functions = {{10, bits(24, 1)},
                      {11, bits(25, 1)},
                      {12, bits(26, 1)},
                      {13, bits(27, 1)}};  // rank
  return c;
}

}  // namespace

const std::vector<std::string>& mapping_menu() {
  static const std::vector<std::string> names = {
      "ddr3:1ch", "ddr3:2ch", "ddr4:1ch", "ddr4:2ch", "lpddr3:mb"};
  return names;
}

MappingConfig make_mapping_config(std::string_view name) {
  if (name == "ddr3:1ch") return ddr3_1ch();
  if (name == "ddr3:2ch") return ddr3_2ch();
  if (name == "ddr4:1ch") return ddr4_1ch();
  if (name == "ddr4:2ch") return ddr4_2ch();
  if (name == "lpddr3:mb") return lpddr3_mb();
  throw ContractViolation("unknown mapping geometry: " + std::string(name));
}

}  // namespace unp::dram::mapping
