// Encode kernel equivalence: every supported ISA's varint / zigzag-delta
// encode kernels must emit bytes identical to the put_varint scalar oracle —
// across all head/tail residues of the blocked loops, at every LEB128
// length boundary (the 2^7k edges), and through the block-buffered
// VarintWriter.  Also pins the growth-counter contract: encoding into a
// buffer pre-sized from node_log_encoded_bound never reallocates.
#include "telemetry/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd_dispatch.hpp"
#include "telemetry/archive.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::telemetry::kernels {
namespace {

std::vector<Isa> isas() { return simd::supported_isas(); }

/// Every LEB128 length boundary: 2^(7k) - 1, 2^(7k), 2^(7k) + 1 for each
/// group count, plus the 10-byte extremes.
std::vector<std::uint64_t> boundary_values() {
  std::vector<std::uint64_t> v{0, 1, 0x7F, 0x80, 0x81};
  for (int k = 2; k <= 9; ++k) {
    const std::uint64_t edge = std::uint64_t{1} << (7 * k);
    v.push_back(edge - 1);
    v.push_back(edge);
    v.push_back(edge + 1);
  }
  v.push_back(~std::uint64_t{0} >> 1);
  v.push_back((~std::uint64_t{0} >> 1) + 1);
  v.push_back(~std::uint64_t{0});
  return v;
}

/// Mixed stream shaped like real telemetry: mostly 1-byte values with
/// multi-byte and maximal encodings sprinkled in.
std::vector<std::uint64_t> mixed_values(std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t roll = rng.next() % 100;
    if (roll < 70)
      values.push_back(rng.next() % 128);  // 1 byte (packed-run path)
    else if (roll < 90)
      values.push_back(128 + rng.next() % (1u << 20));  // 2-3 bytes
    else
      values.push_back(rng.next());  // up to 10 bytes
  }
  return values;
}

std::string oracle_bytes(const std::vector<std::uint64_t>& values) {
  std::string out;
  for (const std::uint64_t v : values) put_varint(out, v);
  return out;
}

// Set selection (isa field, name, active latch) is checked once for every
// family in tests/common/simd_dispatch_test.cpp; this pins the set contents.
TEST(EncodeKernelsTest, EveryIsaSetIsComplete) {
  for (const Isa isa : isas()) {
    const EncodeKernels& k = encode_kernels_for(isa);
    EXPECT_NE(k.encode_varint, nullptr);
    EXPECT_NE(k.encode_varints, nullptr);
    EXPECT_NE(k.encode_zigzag_deltas, nullptr);
  }
}

TEST(EncodeKernelsTest, EncodeVarintMatchesPutVarintAtEveryLengthBoundary) {
  for (const std::uint64_t v : boundary_values()) {
    std::string expect;
    put_varint(expect, v);
    for (const Isa isa : isas()) {
      char buffer[16];
      std::memset(buffer, 0x5A, sizeof buffer);
      const std::size_t len = encode_kernels_for(isa).encode_varint(v, buffer);
      ASSERT_EQ(len, expect.size()) << simd::to_string(isa) << " value " << v;
      EXPECT_EQ(std::string(buffer, len), expect)
          << simd::to_string(isa) << " value " << v;
    }
  }
}

TEST(EncodeKernelsTest, EncodeVarintsMatchesOracleOnEveryResidue) {
  // Counts 0..40 cover every head/tail residue of the 8-wide packed-run
  // check and the 512-byte block spill; 3000 exercises multiple spills.
  for (std::size_t count = 0; count <= 40; ++count) {
    const auto values = mixed_values(count, count * 31 + 7);
    const std::string expect = oracle_bytes(values);
    for (const Isa isa : isas()) {
      std::string got;
      encode_kernels_for(isa).encode_varints(values.data(), values.size(), got);
      EXPECT_EQ(got, expect) << simd::to_string(isa) << " count " << count;
    }
  }
  const auto values = mixed_values(3000, 99);
  const std::string expect = oracle_bytes(values);
  for (const Isa isa : isas()) {
    std::string got;
    encode_kernels_for(isa).encode_varints(values.data(), values.size(), got);
    EXPECT_EQ(got, expect) << simd::to_string(isa);
  }
}

TEST(EncodeKernelsTest, EncodeVarintsPacksBoundaryRuns) {
  // All-small runs at lengths straddling the 8-value packed store, and a
  // boundary-value stream stressing every encoded length back to back.
  for (const std::size_t count : {std::size_t{7}, std::size_t{8},
                                  std::size_t{9}, std::size_t{16},
                                  std::size_t{17}}) {
    std::vector<std::uint64_t> small(count);
    for (std::size_t i = 0; i < count; ++i) small[i] = i % 128;
    const std::string expect = oracle_bytes(small);
    for (const Isa isa : isas()) {
      std::string got;
      encode_kernels_for(isa).encode_varints(small.data(), small.size(), got);
      EXPECT_EQ(got, expect) << simd::to_string(isa) << " count " << count;
    }
  }
  const auto edges = boundary_values();
  const std::string expect = oracle_bytes(edges);
  for (const Isa isa : isas()) {
    std::string got;
    encode_kernels_for(isa).encode_varints(edges.data(), edges.size(), got);
    EXPECT_EQ(got, expect) << simd::to_string(isa);
  }
}

TEST(EncodeKernelsTest, EncodeZigzagDeltasMatchesSignedScalarChain) {
  Xoshiro256 rng(2024);
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{33}, std::size_t{1000}}) {
    // Random walk with small steps (packed-run path), regressions (negative
    // deltas), and occasional huge jumps (multi-byte and wraparound cases).
    std::vector<std::uint64_t> values(count);
    std::uint64_t v = 1'440'000'000;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t roll = rng.next() % 100;
      if (roll < 70)
        v += rng.next() % 32;
      else if (roll < 90)
        v -= rng.next() % 1000;  // regression: negative delta
      else
        v = rng.next();  // arbitrary jump, including wraparound deltas
      values[i] = v;
    }
    const std::uint64_t base = count % 2 == 0 ? 0 : 1'439'999'000;

    // Oracle: the original signed delta chain the section writers ran.
    std::string expect;
    std::uint64_t previous = base;
    for (const std::uint64_t value : values) {
      put_varint(expect,
                 zigzag_encode(static_cast<std::int64_t>(value - previous)));
      previous = value;
    }

    for (const Isa isa : isas()) {
      std::string got;
      encode_kernels_for(isa).encode_zigzag_deltas(values.data(), values.size(),
                                                   base, got);
      EXPECT_EQ(got, expect) << simd::to_string(isa) << " count " << count;
    }
  }
}

TEST(EncodeKernelsTest, VarintWriterMatchesDirectAppends) {
  const auto values = mixed_values(700, 5);
  for (const Isa isa : isas()) {
    std::string expect;
    for (std::size_t i = 0; i < values.size(); ++i) {
      put_varint(expect, values[i]);
      if (i % 5 == 0) expect.push_back('\1');
      if (i % 7 == 0) put_f64(expect, static_cast<double>(values[i]) * 0.25);
    }
    std::string got;
    {
      VarintWriter w(got, encode_kernels_for(isa));
      for (std::size_t i = 0; i < values.size(); ++i) {
        w.varint(values[i]);
        if (i % 5 == 0) w.byte('\1');
        if (i % 7 == 0) w.f64(static_cast<double>(values[i]) * 0.25);
      }
    }  // destructor flushes
    EXPECT_EQ(got, expect) << simd::to_string(isa);
  }
}

NodeLog busy_log(cluster::NodeId node, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  NodeLog log;
  TimePoint t = from_civil_utc({2015, 6, 1, 0, 0, 0});
  for (int s = 0; s < 40; ++s) {
    t += static_cast<TimePoint>(3600 + rng.next() % 7200);
    log.add_start({t, node, 3ULL << 30,
                   s % 3 == 0 ? kNoTemperature : 25.0 + static_cast<double>(s)});
    for (int e = 0; e < 12; ++e) {
      ErrorRecord err;
      err.time = t + 60 * (e + 1);
      err.node = node;
      err.virtual_address = (rng.next() % (1ull << 33)) & ~std::uint64_t{3};
      err.expected = static_cast<Word>(rng.next());
      err.actual = err.expected ^ static_cast<Word>(1u << (rng.next() % 32));
      err.temperature_c = e % 2 == 0 ? kNoTemperature : 31.25;
      err.physical_page = err.virtual_address >> 12;
      log.add_error_run({err, static_cast<std::int64_t>(rng.next() % 400),
                         1 + rng.next() % 90});
    }
    for (int a = 0; a < 6; ++a)
      log.add_alloc_fail({t + 10 * (a + 1), node});
    t += 8 * 3600;
    log.add_end({t, node, 26.5});
  }
  log.sort_by_time();
  return log;
}

TEST(EncodeKernelsTest, NodeLogBoundPreSizingNeverReallocates) {
  const NodeLog log = busy_log({3, 7}, 11);
  const std::size_t bound = node_log_encoded_bound(log);
  const std::string expect = encode_node_log(log);
  ASSERT_LE(expect.size(), bound);

  for (const Isa isa : isas()) {
    std::string out;
    EncodeArena arena;
    arena.scratch.reserve(1024);
    // Warm the buffer once (first reserve is an expected allocation), then
    // assert the steady-state contract: reuse never grows the buffer.
    encode_node_log_into(log, out, encode_kernels_for(isa), &arena);
    EXPECT_EQ(out, expect) << simd::to_string(isa);
    reset_encode_growth_count();
    for (int round = 0; round < 3; ++round) {
      out.clear();
      encode_node_log_into(log, out, encode_kernels_for(isa), &arena);
    }
    EXPECT_EQ(encode_growth_count(), 0u) << simd::to_string(isa);
    EXPECT_EQ(out, expect) << simd::to_string(isa);
  }
}

TEST(EncodeKernelsTest, GrowthCounterSeesUnreservedAppends) {
  // Sanity-check the instrument itself: a deliberately unreserved
  // destination must register growth.
  const auto values = mixed_values(5000, 1);
  reset_encode_growth_count();
  std::string out;
  out.shrink_to_fit();
  active_encode_kernels().encode_varints(values.data(), values.size(), out);
  EXPECT_GT(encode_growth_count(), 0u);
  reset_encode_growth_count();
}

}  // namespace
}  // namespace unp::telemetry::kernels
