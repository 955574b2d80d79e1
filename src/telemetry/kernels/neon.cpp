// NEON-tier encode kernels (AArch64).  NEON is baseline on AArch64, so like
// the SSE2 tier the win over the scalar oracle is the branch-free SWAR
// expansion path; the compiler vectorizes the packed-run loops.
#if defined(__aarch64__)

#include "telemetry/kernels/kernel_table.hpp"

namespace unp::telemetry::kernels {
namespace {

std::size_t encode_varint_neon(std::uint64_t value, char* dst) {
  return value < (std::uint64_t{1} << 56)
             ? encode_small_varint_swar(value, dst)
             : encode_varint_scalar(value, dst);
}

void encode_varints_neon(const std::uint64_t* values, std::size_t count,
                         std::string& out) {
  encode_varints_blocked<encode_small_varint_swar>(values, count, out);
}

void encode_zigzag_deltas_neon(const std::uint64_t* values, std::size_t count,
                               std::uint64_t base, std::string& out) {
  encode_zigzag_deltas_blocked<encode_small_varint_swar>(values, count, base,
                                                         out);
}

}  // namespace

const EncodeKernels& EncodeKernels::neon() noexcept {
  static constexpr EncodeKernels kSet{
      Isa::kNeon,
      "neon",
      encode_varint_neon,
      encode_varints_neon,
      encode_zigzag_deltas_neon,
  };
  return kSet;
}

}  // namespace unp::telemetry::kernels

#endif  // aarch64
