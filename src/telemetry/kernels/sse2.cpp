// SSE2-baseline encode kernels (x86-64).  No flag needed: SSE2 is part of
// the x86-64 baseline, so this TU's differentiator over the scalar oracle
// is the branch-free SWAR expansion — length from bit_width, three shift
// steps spreading the payload into 7-bit groups, one masked 8-byte store —
// where the scalar loop takes a data-dependent branch per output byte.
#if defined(__x86_64__) || defined(_M_X64)

#include "telemetry/kernels/kernel_table.hpp"

namespace unp::telemetry::kernels {
namespace {

std::size_t encode_varint_sse2(std::uint64_t value, char* dst) {
  return value < (std::uint64_t{1} << 56)
             ? encode_small_varint_swar(value, dst)
             : encode_varint_scalar(value, dst);
}

void encode_varints_sse2(const std::uint64_t* values, std::size_t count,
                         std::string& out) {
  encode_varints_blocked<encode_small_varint_swar>(values, count, out);
}

void encode_zigzag_deltas_sse2(const std::uint64_t* values, std::size_t count,
                               std::uint64_t base, std::string& out) {
  encode_zigzag_deltas_blocked<encode_small_varint_swar>(values, count, base,
                                                         out);
}

}  // namespace

const EncodeKernels& EncodeKernels::sse2() noexcept {
  static constexpr EncodeKernels kSet{
      Isa::kSse2,
      "sse2",
      encode_varint_sse2,
      encode_varints_sse2,
      encode_zigzag_deltas_sse2,
  };
  return kSet;
}

}  // namespace unp::telemetry::kernels

#endif  // x86-64
