// AVX2/BMI2 encode kernels.  Compiled with -mavx2 -mbmi2 (see CMakeLists)
// and reached only through the dispatcher's runtime cpuid check, which
// requires both feature bits for Isa::kAvx2.
//
// The per-value fast path is one pdep depositing the payload into the
// 7-bit group positions — the exact inverse of the store decoder's pext
// compaction.  The batch kernels also vectorize the all-small detection:
// a 256-bit load of four u64 lanes ORs down to one scalar test per half
// block, keeping the packed-run check off the dependent path.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "telemetry/kernels/kernel_table.hpp"

namespace unp::telemetry::kernels {
namespace {

std::size_t encode_varint_avx2(std::uint64_t value, char* dst) {
  return value < (std::uint64_t{1} << 56)
             ? encode_small_varint_pdep(value, dst)
             : encode_varint_scalar(value, dst);
}

/// OR-reduce 8 u64 values with two 256-bit loads.
inline std::uint64_t or8(const std::uint64_t* v) noexcept {
  const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
  const __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + 4));
  const __m256i o = _mm256_or_si256(lo, hi);
  const __m128i q =
      _mm_or_si128(_mm256_castsi256_si128(o), _mm256_extracti128_si256(o, 1));
  return static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm_or_si128(q, _mm_unpackhi_epi64(q, q))));
}

void encode_varints_avx2(const std::uint64_t* values, std::size_t count,
                         std::string& out) {
  char buffer[kEncodeBlock + 16];
  std::size_t used = 0;
  std::size_t i = 0;
  while (i < count) {
    if (used > kEncodeBlock - 16) {
      kernel_append(out, buffer, used);
      used = 0;
    }
    if (count - i >= 8 && or8(values + i) < 0x80) {
      std::uint64_t packed = 0;
      for (int j = 0; j < 8; ++j)
        packed |= values[i + static_cast<std::size_t>(j)] << (8 * j);
      std::memcpy(buffer + used, &packed, 8);
      used += 8;
      i += 8;
      continue;
    }
    const std::uint64_t v = values[i++];
    used += v < (std::uint64_t{1} << 56)
                ? encode_small_varint_pdep(v, buffer + used)
                : encode_varint_scalar(v, buffer + used);
  }
  if (used != 0) kernel_append(out, buffer, used);
}

void encode_zigzag_deltas_avx2(const std::uint64_t* values, std::size_t count,
                               std::uint64_t base, std::string& out) {
  encode_zigzag_deltas_blocked<encode_small_varint_pdep>(values, count, base,
                                                         out);
}

}  // namespace

const EncodeKernels& EncodeKernels::avx2() noexcept {
  static constexpr EncodeKernels kSet{
      Isa::kAvx2,
      "avx2",
      encode_varint_avx2,
      encode_varints_avx2,
      encode_zigzag_deltas_avx2,
  };
  return kSet;
}

}  // namespace unp::telemetry::kernels

#endif  // x86-64
