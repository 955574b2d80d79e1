// Internal: the encode building blocks the per-ISA translation units share.
#pragma once

#include <bit>
#include <cstring>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

#include "telemetry/kernels/kernels.hpp"

namespace unp::telemetry::kernels {

// Scalar building block the vector TUs reuse for oversized values.
// encode_varint_scalar IS put_varint's byte loop, so it defines the byte
// output every other path must reproduce.
[[nodiscard]] std::size_t encode_varint_scalar(std::uint64_t value, char* dst);

/// Canonical LEB128 length: one 7-bit group per byte, final group nonzero.
[[nodiscard]] inline int varint_length(std::uint64_t v) noexcept {
  return v < 0x80 ? 1 : (static_cast<int>(std::bit_width(v)) + 6) / 7;
}

/// zigzag_encode in wraparound u64 arithmetic: the same bits as the signed
/// form without the signed-overflow UB an accumulating loop would risk.
[[nodiscard]] inline std::uint64_t zigzag_u64(std::uint64_t d) noexcept {
  return (d << 1) ^ (std::uint64_t{0} - (d >> 63));
}

/// Spread the low 56 bits of `v` into 7-bit groups, one per byte — the
/// exact inverse of the decoder's three SWAR compaction steps
/// (store/kernels/kernel_table.hpp), run in reverse order.
[[nodiscard]] inline std::uint64_t expand7(std::uint64_t v) noexcept {
  v = ((v & 0x00FFFFFFF0000000ull) << 4) | (v & 0x000000000FFFFFFFull);
  v = ((v & 0x0FFFC0000FFFC000ull) << 2) | (v & 0x00003FFF00003FFFull);
  v = ((v & 0x3F803F803F803F80ull) << 1) | (v & 0x007F007F007F007Full);
  return v;
}

/// Continuation bits for a `len`-byte encoding (1 <= len <= 8): 0x80 on
/// every byte but the last.  len == 8 keeps the shift in range (>> 0).
[[nodiscard]] inline std::uint64_t continuation_mask(int len) noexcept {
  return 0x0080808080808080ull >> (8 * (8 - len));
}

/// Encode a value of at most 8 encoded bytes (v < 2^56) as one expand +
/// mask-OR + unaligned 8-byte store.  `dst` needs 8 writable bytes; the
/// slack past the returned length is overwritten by the next value.
[[nodiscard]] inline std::size_t encode_small_varint_swar(std::uint64_t v,
                                                          char* dst) noexcept {
  const int len = varint_length(v);
  const std::uint64_t block = expand7(v) | continuation_mask(len);
  std::memcpy(dst, &block, 8);
  return static_cast<std::size_t>(len);
}

#if defined(__BMI2__)
/// pdep deposits the payload bits straight into the 7-bit group positions:
/// the single-instruction inverse of the decoder's pext compaction.
[[nodiscard]] inline std::size_t encode_small_varint_pdep(std::uint64_t v,
                                                          char* dst) noexcept {
  const int len = varint_length(v);
  const std::uint64_t block =
      _pdep_u64(v, 0x7f7f7f7f7f7f7f7full) | continuation_mask(len);
  std::memcpy(dst, &block, 8);
  return static_cast<std::size_t>(len);
}
#endif

inline constexpr std::size_t kEncodeBlock = 512;

/// Shared batch skeleton: encode into a stack block, spill through
/// kernel_append.  `EncodeOne` is the per-value fast path (pdep or SWAR);
/// runs of eight single-byte values short-circuit to one packed store, and
/// 9-10 byte values funnel through the scalar loop.
template <std::size_t (*EncodeOne)(std::uint64_t, char*) noexcept>
inline void encode_varints_blocked(const std::uint64_t* values,
                                   std::size_t count, std::string& out) {
  char buffer[kEncodeBlock + 16];
  std::size_t used = 0;
  std::size_t i = 0;
  while (i < count) {
    if (used > kEncodeBlock - 16) {
      kernel_append(out, buffer, used);
      used = 0;
    }
    if (count - i >= 8) {
      std::uint64_t any = 0;
      for (int j = 0; j < 8; ++j) any |= values[i + static_cast<std::size_t>(j)];
      if (any < 0x80) {
        std::uint64_t packed = 0;
        for (int j = 0; j < 8; ++j)
          packed |= values[i + static_cast<std::size_t>(j)] << (8 * j);
        std::memcpy(buffer + used, &packed, 8);
        used += 8;
        i += 8;
        continue;
      }
    }
    const std::uint64_t v = values[i++];
    used += v < (std::uint64_t{1} << 56) ? EncodeOne(v, buffer + used)
                                         : encode_varint_scalar(v, buffer + used);
  }
  if (used != 0) kernel_append(out, buffer, used);
}

template <std::size_t (*EncodeOne)(std::uint64_t, char*) noexcept>
inline void encode_zigzag_deltas_blocked(const std::uint64_t* values,
                                         std::size_t count, std::uint64_t base,
                                         std::string& out) {
  char buffer[kEncodeBlock + 16];
  std::size_t used = 0;
  std::uint64_t prev = base;
  std::size_t i = 0;
  while (i < count) {
    if (used > kEncodeBlock - 16) {
      kernel_append(out, buffer, used);
      used = 0;
    }
    if (count - i >= 8) {
      // Eight consecutive small deltas (|delta| < 64 after zigzag) pack to
      // one store — the dominant shape of timestamp runs.
      std::uint64_t zz[8];
      std::uint64_t any = 0;
      std::uint64_t p = prev;
      for (int j = 0; j < 8; ++j) {
        const std::uint64_t v = values[i + static_cast<std::size_t>(j)];
        zz[j] = zigzag_u64(v - p);
        any |= zz[j];
        p = v;
      }
      if (any < 0x80) {
        std::uint64_t packed = 0;
        for (int j = 0; j < 8; ++j) packed |= zz[j] << (8 * j);
        std::memcpy(buffer + used, &packed, 8);
        used += 8;
        i += 8;
        prev = p;
        continue;
      }
    }
    const std::uint64_t v = values[i++];
    const std::uint64_t zz = zigzag_u64(v - prev);
    prev = v;
    used += zz < (std::uint64_t{1} << 56)
                ? EncodeOne(zz, buffer + used)
                : encode_varint_scalar(zz, buffer + used);
  }
  if (used != 0) kernel_append(out, buffer, used);
}

}  // namespace unp::telemetry::kernels
