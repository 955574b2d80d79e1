// Acceptance criterion of PR 5: the scanner's record stream is
// byte-identical across UNP_KERNEL=scalar and the best dispatched path.
//
// active_kernels() latches the environment once per process, so instead of
// re-exec'ing the suite per UNP_KERNEL value, this test drives the same
// resolution path (resolve_isa -> kernels_for) and forces the result onto a
// RealMemoryBackend — exactly what the env var does, minus the exec.  Each
// scanner run serializes every record through the production codec; the
// resulting byte streams must match character for character.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "scanner/kernels/kernels.hpp"
#include "scanner/real_backend.hpp"
#include "scanner/scanner.hpp"
#include "telemetry/codec.hpp"

namespace unp::scanner {
namespace {

/// Sink rendering every record exactly as the per-node log files would.
class SerializingSink final : public LogSink {
 public:
  void on_start(const telemetry::StartRecord& r) override { append(r); }
  void on_end(const telemetry::EndRecord& r) override { append(r); }
  void on_alloc_fail(const telemetry::AllocFailRecord& r) override {
    append(r);
  }
  void on_error(const telemetry::ErrorRecord& r) override { append(r); }

  [[nodiscard]] const std::string& bytes() const noexcept { return bytes_; }

 private:
  template <typename Record>
  void append(const Record& r) {
    bytes_ += telemetry::serialize(r);
    bytes_ += '\n';
  }
  std::string bytes_;
};

/// One deterministic scan session: fixed fault schedule, optional page
/// retirement mid-run, serialized record stream as the result.
std::string run_session(const kernels::Kernels& k, std::size_t threads,
                        PatternKind pattern) {
  constexpr std::uint64_t kBytes = 1 << 18;
  RealMemoryBackend backend(kBytes, threads);
  backend.set_kernel_set(k);

  SerializingSink sink;
  ManualClock clock(1430000000);
  FixedProbe probe(31.5);
  MemoryScanner scan(backend, sink, clock, probe,
                     {cluster::NodeId{3, 17}, pattern, kBytes});
  scan.start();

  RngStream rng(99);
  for (int pass = 0; pass < 12; ++pass) {
    // Poke a few words with fault-like corruptions between passes.
    const std::uint64_t faults = rng.uniform_u64(5);
    for (std::uint64_t f = 0; f < faults; ++f) {
      const std::uint64_t w = rng.uniform_u64(backend.word_count());
      const Word mask = static_cast<Word>(1u << rng.uniform_u64(32)) |
                        static_cast<Word>(1u << rng.uniform_u64(32));
      backend.poke(w, backend.peek(w) ^ mask);
    }
    if (pass == 5) backend.mask_words(1000, 2048);  // retire a page mid-run
    clock.advance(97);
    scan.step();
  }
  scan.finish();
  return sink.bytes();
}

TEST(KernelIdentity, RecordStreamByteIdenticalScalarVsDispatched) {
  // What UNP_KERNEL=scalar resolves to...
  std::string warning;
  const kernels::Kernels& scalar =
      kernels::kernels_for(simd::resolve_isa("scalar", &warning));
  ASSERT_TRUE(warning.empty()) << warning;
  ASSERT_EQ(scalar.isa, simd::Isa::kScalar);
  // ...versus the unset-environment dispatch (the best path).
  const kernels::Kernels& best =
      kernels::kernels_for(simd::resolve_isa(nullptr, nullptr));

  for (const PatternKind pattern :
       {PatternKind::kAlternating, PatternKind::kCounter}) {
    const std::string want = run_session(scalar, 1, pattern);
    ASSERT_FALSE(want.empty());
    EXPECT_NE(want.find("ERROR"), std::string::npos)
        << "schedule produced no mismatches; test is vacuous";
    EXPECT_EQ(run_session(best, 1, pattern), want);
    // Thread count must not change the bytes either (lane merge order).
    EXPECT_EQ(run_session(best, 4, pattern), want);
    EXPECT_EQ(run_session(scalar, 3, pattern), want);
  }
}

TEST(KernelIdentity, EverySupportedIsaProducesTheSameBytes) {
  const std::string want =
      run_session(kernels::kernels_for(simd::Isa::kScalar), 1,
                  PatternKind::kAlternating);
  for (const simd::Isa isa : simd::supported_isas()) {
    EXPECT_EQ(run_session(kernels::kernels_for(isa), 2,
                          PatternKind::kAlternating),
              want)
        << simd::to_string(isa);
  }
}

}  // namespace
}  // namespace unp::scanner
