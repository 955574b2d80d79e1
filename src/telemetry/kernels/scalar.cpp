// Scalar encode kernels: the portable correctness oracle.
//
// encode_varint_scalar is put_varint's loop writing into a caller buffer —
// deliberately, so the canonical LEB128 byte sequence is defined in exactly
// one place and every vector path is measured against it.  The batch forms
// run that loop per value and spill through kernel_append, so the growth
// counter sees the same traffic on every ISA.  kernel_append and its
// counter live here, with the oracle, because every set spills through them;
// so do the set selection and VarintWriter's out-of-line members, which must
// never be compiled with the AVX2 unit's flags.
#include "telemetry/kernels/kernel_table.hpp"

#include <atomic>

namespace unp::telemetry::kernels {

namespace {

std::atomic<std::uint64_t> g_growth_count{0};

}  // namespace

void kernel_append(std::string& out, const char* data, std::size_t size) {
  if (out.size() + size > out.capacity())
    g_growth_count.fetch_add(1, std::memory_order_relaxed);
  out.append(data, size);
}

std::uint64_t encode_growth_count() noexcept {
  return g_growth_count.load(std::memory_order_relaxed);
}

void reset_encode_growth_count() noexcept {
  g_growth_count.store(0, std::memory_order_relaxed);
}

std::size_t encode_varint_scalar(std::uint64_t value, char* dst) {
  std::size_t n = 0;
  while (value >= 0x80) {
    dst[n++] = static_cast<char>((value & 0x7F) | 0x80);
    value >>= 7;
  }
  dst[n++] = static_cast<char>(value);
  return n;
}

namespace {

void encode_varints_scalar(const std::uint64_t* values, std::size_t count,
                           std::string& out) {
  char buffer[kEncodeBlock + 16];
  std::size_t used = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (used > kEncodeBlock - 16) {
      kernel_append(out, buffer, used);
      used = 0;
    }
    used += encode_varint_scalar(values[i], buffer + used);
  }
  if (used != 0) kernel_append(out, buffer, used);
}

void encode_zigzag_deltas_scalar(const std::uint64_t* values, std::size_t count,
                                 std::uint64_t base, std::string& out) {
  char buffer[kEncodeBlock + 16];
  std::size_t used = 0;
  std::uint64_t prev = base;
  for (std::size_t i = 0; i < count; ++i) {
    if (used > kEncodeBlock - 16) {
      kernel_append(out, buffer, used);
      used = 0;
    }
    used += encode_varint_scalar(zigzag_u64(values[i] - prev), buffer + used);
    prev = values[i];
  }
  if (used != 0) kernel_append(out, buffer, used);
}

}  // namespace

const EncodeKernels& EncodeKernels::scalar() noexcept {
  static constexpr EncodeKernels kSet{
      Isa::kScalar,
      "scalar",
      encode_varint_scalar,
      encode_varints_scalar,
      encode_zigzag_deltas_scalar,
  };
  return kSet;
}

const EncodeKernels& encode_kernels_for(Isa isa) {
  return simd::kernels_for<EncodeKernels>(isa);
}

const EncodeKernels& active_encode_kernels() {
  return simd::active_kernels<EncodeKernels>();
}

void VarintWriter::f64(double value) {
  ensure(8);
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  // LSB-first byte order, matching put_f64/get_f64 on any host endianness.
  for (int i = 0; i < 8; ++i)
    buffer_[used_++] = static_cast<char>((bits >> (8 * i)) & 0xFF);
}

void VarintWriter::flush() {
  if (used_ == 0) return;
  kernel_append(*out_, buffer_, used_);
  used_ = 0;
}

}  // namespace unp::telemetry::kernels
