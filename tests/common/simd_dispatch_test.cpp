// The shared SIMD dispatch home: ISA naming, detection and UNP_KERNEL
// resolution, plus set selection for every kernel family — the scanner's
// sweep kernels, the store's decode kernels and telemetry's encode kernels
// are three inputs to one typed check.
#include "common/simd_dispatch.hpp"

#include <gtest/gtest.h>

#include <string>

#include "scanner/kernels/kernels.hpp"
#include "store/kernels/kernels.hpp"
#include "telemetry/kernels/kernels.hpp"

namespace unp::simd {
namespace {

TEST(KernelDispatch, ToStringParseRoundTrip) {
  for (const Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2, Isa::kNeon}) {
    Isa parsed = Isa::kScalar;
    ASSERT_TRUE(parse_isa(to_string(isa), parsed));
    EXPECT_EQ(parsed, isa);
  }
  Isa out;
  EXPECT_FALSE(parse_isa("", out));
  EXPECT_FALSE(parse_isa("avx512", out));
  EXPECT_FALSE(parse_isa("Scalar", out));
}

TEST(KernelDispatch, ScalarAlwaysSupportedAndFirst) {
  EXPECT_TRUE(is_supported(Isa::kScalar));
  const auto isas = supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::kScalar);
  for (const Isa isa : isas) EXPECT_TRUE(is_supported(isa));
  EXPECT_TRUE(is_supported(best_supported_isa()));
}

TEST(KernelDispatch, ResolveHonoursSupportedRequest) {
  for (const Isa isa : supported_isas()) {
    std::string warning;
    EXPECT_EQ(resolve_isa(to_string(isa), &warning), isa);
    EXPECT_TRUE(warning.empty()) << warning;
  }
}

TEST(KernelDispatch, ResolveFallsBackWithWarning) {
  std::string warning;
  EXPECT_EQ(resolve_isa(nullptr, &warning), best_supported_isa());
  EXPECT_TRUE(warning.empty());
  EXPECT_EQ(resolve_isa("", &warning), best_supported_isa());
  EXPECT_TRUE(warning.empty());

  EXPECT_EQ(resolve_isa("not-an-isa", &warning), best_supported_isa());
  EXPECT_NE(warning.find("not recognised"), std::string::npos) << warning;

#if defined(__x86_64__)
  warning.clear();
  EXPECT_EQ(resolve_isa("neon", &warning), best_supported_isa());
  EXPECT_NE(warning.find("not supported"), std::string::npos) << warning;
#endif
}

template <class Set>
class KernelFamily : public ::testing::Test {};

using Families =
    ::testing::Types<scanner::kernels::Kernels, store::kernels::StoreKernels,
                     telemetry::kernels::EncodeKernels>;
TYPED_TEST_SUITE(KernelFamily, Families);

TYPED_TEST(KernelFamily, EverySupportedIsaReturnsAMatchingSet) {
  for (const Isa isa : supported_isas()) {
    const TypeParam& set = kernels_for<TypeParam>(isa);
    EXPECT_EQ(set.isa, isa);
    EXPECT_STREQ(set.name, to_string(isa));
  }
}

TYPED_TEST(KernelFamily, UnsupportedIsaIsRefused) {
  for (const Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2, Isa::kNeon}) {
    if (is_supported(isa)) continue;
    EXPECT_THROW((void)kernels_for<TypeParam>(isa), ContractViolation)
        << to_string(isa);
  }
}

TYPED_TEST(KernelFamily, ActiveSetIsLatchedOnTheActiveIsa) {
  const TypeParam& active = active_kernels<TypeParam>();
  EXPECT_TRUE(is_supported(active.isa));
  EXPECT_EQ(active.isa, active_isa());
  EXPECT_EQ(&active, &kernels_for<TypeParam>(active_isa()));
  EXPECT_EQ(&active, &active_kernels<TypeParam>());
}

}  // namespace
}  // namespace unp::simd
