// Store kernel equivalence: every supported ISA's column-decode and
// predicate kernels must be observationally identical to the scalar set —
// same outputs, same DecodeError offsets on malformed input — and a whole
// scan must return the same rows no matter which set runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/extraction.hpp"
#include "common/rng.hpp"
#include "common/simd_dispatch.hpp"
#include "store/builder.hpp"
#include "store/handle.hpp"
#include "store/kernels/kernels.hpp"
#include "store/query.hpp"
#include "store/reader.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::store::kernels {
namespace {

using telemetry::DecodeError;
using telemetry::put_varint;

/// A varint stream shaped like real store columns: mostly 1-byte values
/// (the SIMD fast path) with multi-byte values sprinkled in (the mixed-block
/// fallback), plus occasional maximal 10-byte encodings.
std::string make_varint_stream(std::vector<std::uint64_t>& values,
                               std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::string bytes;
  values.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t roll = rng.next() % 100;
    std::uint64_t v;
    if (roll < 80)
      v = rng.next() % 128;  // 1 byte
    else if (roll < 95)
      v = 128 + rng.next() % (1u << 20);  // 2-3 bytes
    else
      v = rng.next();  // up to 10 bytes
    values.push_back(v);
    put_varint(bytes, v);
  }
  return bytes;
}

std::vector<Isa> isas() { return simd::supported_isas(); }

// Set selection (isa field, name, active latch) is checked once for every
// family in tests/common/simd_dispatch_test.cpp; this pins the set contents.
TEST(StoreKernelsTest, EveryIsaSetIsComplete) {
  for (const Isa isa : isas()) {
    const StoreKernels& k = store_kernels_for(isa);
    EXPECT_NE(k.decode_varints, nullptr);
    EXPECT_NE(k.unpack_bits, nullptr);
    EXPECT_NE(k.mask_range_u32, nullptr);
    EXPECT_NE(k.mask_range_i64, nullptr);
    EXPECT_NE(k.mask_class, nullptr);
    EXPECT_NE(k.decode_zigzag_deltas, nullptr);
  }
}

TEST(StoreKernelsTest, DecodeVarintsMatchesScalarOnMixedStreams) {
  const StoreKernels& scalar = store_kernels_for(Isa::kScalar);
  for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{31}, std::size_t{32},
                                  std::size_t{1000}}) {
    std::vector<std::uint64_t> values;
    const std::string bytes = make_varint_stream(values, count, count + 17);
    std::vector<std::uint64_t> expect(count + 1, 0);
    const std::size_t expect_end =
        scalar.decode_varints(bytes, 0, count, expect.data());
    EXPECT_EQ(expect_end, bytes.size());
    EXPECT_TRUE(std::equal(values.begin(), values.end(), expect.begin()));

    for (const Isa isa : isas()) {
      std::vector<std::uint64_t> got(count + 1, 0);
      const std::size_t end =
          store_kernels_for(isa).decode_varints(bytes, 0, count, got.data());
      EXPECT_EQ(end, expect_end) << simd::to_string(isa);
      EXPECT_EQ(got, expect) << simd::to_string(isa);
    }
  }
}

TEST(StoreKernelsTest, DecodeVarintsTruncationThrowsIdenticalOffsets) {
  std::vector<std::uint64_t> values;
  const std::string bytes = make_varint_stream(values, 200, 5);
  // Cut the stream mid-value at several depths; every ISA must throw a
  // DecodeError with the scalar oracle's byte offset.
  for (const std::size_t cut :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{1}}) {
    const std::string_view truncated(bytes.data(), cut);
    std::uint64_t scalar_offset = 0;
    bool scalar_threw = false;
    std::vector<std::uint64_t> out(values.size(), 0);
    try {
      (void)store_kernels_for(Isa::kScalar)
          .decode_varints(truncated, 0, values.size(), out.data());
    } catch (const DecodeError& e) {
      scalar_threw = true;
      scalar_offset = e.byte_offset();
    }
    ASSERT_TRUE(scalar_threw) << cut;

    for (const Isa isa : isas()) {
      try {
        (void)store_kernels_for(isa).decode_varints(truncated, 0,
                                                    values.size(), out.data());
        FAIL() << simd::to_string(isa) << " accepted truncated input";
      } catch (const DecodeError& e) {
        EXPECT_EQ(e.byte_offset(), scalar_offset) << simd::to_string(isa);
      }
    }
  }
}

TEST(StoreKernelsTest, DecodeZigzagDeltasMatchesScalarAndUnfusedPath) {
  const StoreKernels& scalar = store_kernels_for(Isa::kScalar);
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{33}, std::size_t{1000}}) {
    std::vector<std::uint64_t> values;
    const std::string bytes = make_varint_stream(values, count, count + 3);

    // The fused kernel must equal decode_varints followed by the original
    // zigzag-prefix loop (the pre-fusion decode_segment behaviour)...
    std::vector<std::uint64_t> unfused(count + 1, 0);
    (void)scalar.decode_varints(bytes, 0, count, unfused.data());
    std::uint64_t prev = 7;
    for (std::size_t i = 0; i < count; ++i) {
      prev += (unfused[i] >> 1) ^ (std::uint64_t{0} - (unfused[i] & 1));
      unfused[i] = prev;
    }
    std::vector<std::uint64_t> expect(count + 1, 0);
    const std::size_t expect_end =
        scalar.decode_zigzag_deltas(bytes, 0, count, 7, expect.data());
    EXPECT_EQ(expect_end, bytes.size());
    EXPECT_TRUE(std::equal(unfused.begin(), unfused.begin() +
                           static_cast<std::ptrdiff_t>(count), expect.begin()));

    // ...and every ISA must match the scalar oracle bit for bit.
    for (const Isa isa : isas()) {
      std::vector<std::uint64_t> got(count + 1, 0);
      const std::size_t end = store_kernels_for(isa).decode_zigzag_deltas(
          bytes, 0, count, 7, got.data());
      EXPECT_EQ(end, expect_end) << simd::to_string(isa);
      EXPECT_EQ(got, expect) << simd::to_string(isa);
    }
  }

  // Truncation mid-stream throws the scalar oracle's DecodeError offset.
  std::vector<std::uint64_t> values;
  const std::string bytes = make_varint_stream(values, 200, 9);
  const std::string_view truncated(bytes.data(), bytes.size() - 1);
  std::uint64_t scalar_offset = 0;
  std::vector<std::uint64_t> out(values.size(), 0);
  try {
    (void)scalar.decode_zigzag_deltas(truncated, 0, values.size(), 0,
                                      out.data());
    FAIL() << "scalar accepted truncated input";
  } catch (const DecodeError& e) {
    scalar_offset = e.byte_offset();
  }
  for (const Isa isa : isas()) {
    try {
      (void)store_kernels_for(isa).decode_zigzag_deltas(
          truncated, 0, values.size(), 0, out.data());
      FAIL() << simd::to_string(isa) << " accepted truncated input";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.byte_offset(), scalar_offset) << simd::to_string(isa);
    }
  }
}

TEST(StoreKernelsTest, UnpackBitsMatchesScalarAcrossAllWidths) {
  Xoshiro256 rng(42);
  for (int width = 1; width <= 64; ++width) {
    const std::size_t count = 200 + static_cast<std::size_t>(width);
    // Pack `count` random width-bit values LSB-first, the builder's layout.
    std::vector<std::uint64_t> values(count);
    const std::uint64_t mask =
        width == 64 ? ~0ull : (1ull << width) - 1;
    for (auto& v : values) v = rng.next() & mask;
    const std::size_t packed_bytes =
        (count * static_cast<std::size_t>(width) + 7) / 8;
    std::vector<unsigned char> packed(packed_bytes + 8, 0);  // slack ok
    std::size_t bit = 0;
    for (const std::uint64_t v : values) {
      for (int b = 0; b < width; ++b, ++bit)
        if ((v >> b) & 1) packed[bit / 8] |= static_cast<unsigned char>(1u << (bit % 8));
    }

    std::vector<std::uint64_t> expect(count, 0);
    store_kernels_for(Isa::kScalar)
        .unpack_bits(packed.data(), count, width, expect.data());
    EXPECT_EQ(expect, values) << "scalar disagrees with the packer, width "
                              << width;
    for (const Isa isa : isas()) {
      std::vector<std::uint64_t> got(count, 0);
      store_kernels_for(isa).unpack_bits(packed.data(), count, width,
                                         got.data());
      EXPECT_EQ(got, expect) << simd::to_string(isa) << " width " << width;
    }
  }
}

TEST(StoreKernelsTest, PredicateMasksMatchScalar) {
  Xoshiro256 rng(77);
  const std::size_t n = 4097;  // odd size: exercises every vector tail
  std::vector<std::uint32_t> u32(n);
  std::vector<std::int64_t> i64(n);
  std::vector<std::uint8_t> codes(n);
  for (std::size_t i = 0; i < n; ++i) {
    u32[i] = static_cast<std::uint32_t>(rng.next() % 1000);
    i64[i] = static_cast<std::int64_t>(rng.next() % 100'000) - 50'000;
    codes[i] = static_cast<std::uint8_t>(rng.next() % 4);
  }
  const std::vector<std::uint8_t> seed_mask = [&] {
    std::vector<std::uint8_t> m(n);
    for (auto& b : m) b = rng.next() % 2 ? 1 : 0;  // AND-into semantics
    return m;
  }();

  // Applies `apply` to scalar- and `isa`-kernel copies of the seed mask and
  // requires equal results (fresh vectors per check; AND-into semantics).
  const auto check = [&](Isa isa, const char* what,
                         auto&& apply) {
    std::vector<std::uint8_t> expect(seed_mask);
    std::vector<std::uint8_t> got(seed_mask);
    apply(store_kernels_for(Isa::kScalar), expect.data());
    apply(store_kernels_for(isa), got.data());
    EXPECT_EQ(got, expect) << simd::to_string(isa) << " " << what;
  };

  for (const Isa isa : isas()) {
    check(isa, "mask_range_u32",
          [&](const StoreKernels& k, std::uint8_t* mask) {
            k.mask_range_u32(u32.data(), n, 250, 700, mask);
          });
    check(isa, "mask_range_i64",
          [&](const StoreKernels& k, std::uint8_t* mask) {
            k.mask_range_i64(i64.data(), n, -10'000, 20'000, mask);
          });
    for (const int allowed : {0x1, 0x6, 0xf, 0x0}) {
      check(isa, "mask_class",
            [&](const StoreKernels& k, std::uint8_t* mask) {
              k.mask_class(codes.data(), n,
                           static_cast<std::uint8_t>(allowed), mask);
            });
    }
  }
}

TEST(StoreKernelsTest, WholeScanIsIsaInvariant) {
  constexpr TimePoint kStart = 1'440'000'000;
  std::vector<analysis::FaultRecord> faults;
  Xoshiro256 rng(3);
  for (int i = 0; i < 2000; ++i) {
    analysis::FaultRecord f;
    f.first_seen = kStart + static_cast<TimePoint>(i) * 45;
    f.last_seen = f.first_seen + static_cast<TimePoint>(rng.next() % 500);
    f.node = cluster::NodeId{(i / 100) % cluster::kStudyBlades,
                             static_cast<int>(rng.next() % 15)};
    f.raw_logs = 1 + rng.next() % 30;
    f.virtual_address = rng.next() % (1ull << 40);
    f.expected = static_cast<Word>(rng.next());
    Word mask = 1;
    if (i % 9 == 0)
      for (int b = 0; b < 5; ++b) mask |= Word{1} << (rng.next() % 32);
    f.actual = f.expected ^ mask;
    f.temperature_c = i % 4 == 0 ? telemetry::kNoTemperature : 25.0;
    faults.push_back(f);
  }
  std::sort(faults.begin(), faults.end(),
            [](const analysis::FaultRecord& a, const analysis::FaultRecord& b) {
              return std::tie(a.first_seen, a.node, a.virtual_address) <
                     std::tie(b.first_seen, b.node, b.virtual_address);
            });
  StoreBuilder builder(StoreBuilder::Config{128});
  builder.set_window(CampaignWindow{kStart, kStart + 200'000});
  builder.begin_faults(
      analysis::FaultStreamContext{{kStart, kStart + 200'000}});
  for (const auto& f : faults) builder.on_fault(f);
  builder.end_faults();
  const StoreReader reader{StoreHandle::from_bytes(builder.encode())};

  std::vector<Query> queries;
  queries.emplace_back();
  {
    Query q;
    q.since = kStart + 10'000;
    q.until = kStart + 60'000;
    q.blade = 4;
    queries.push_back(q);
  }
  {
    Query q;
    q.min_bits = 2;
    queries.push_back(q);
  }

  for (const Query& q : queries) {
    ScanOptions scalar_options;
    scalar_options.kernels = &store_kernels_for(Isa::kScalar);
    const auto expect = reader.materialize(q, scalar_options);
    for (const Isa isa : isas()) {
      ScanOptions options;
      options.kernels = &store_kernels_for(isa);
      EXPECT_EQ(reader.materialize(q, options), expect)
          << simd::to_string(isa) << " on " << q.describe();
    }
  }
}

}  // namespace
}  // namespace unp::store::kernels
