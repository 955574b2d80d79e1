// Shared runtime SIMD dispatch: which instruction set the process uses,
// and which of a kernel family's per-ISA sets runs.
//
// Three subsystems carry per-ISA kernel sets — the scanner's memory-sweep
// kernels (src/scanner/kernels), the store's column-decode kernels
// (src/store/kernels) and telemetry's encode kernels
// (src/telemetry/kernels).  All must agree on the answer to "which ISA runs
// here?", honour the same UNP_KERNEL=scalar|sse2|avx2|neon override, and
// latch the decision exactly once per process, so detection, resolution
// and set selection live in this dependency-free home, written once:
//
//   - is_supported(isa)      can this CPU execute isa's instructions?
//   - best_supported_isa()   fastest ISA the CPU reports (avx2 > sse2 >
//                            scalar on x86-64, neon > scalar on AArch64)
//   - resolve_isa(env, w)    dispatch decision given an UNP_KERNEL value
//   - active_isa()           the process-wide decision, resolved once from
//                            the environment on first use
//   - kernels_for<Set>(isa)  family Set's kernel set for isa
//   - active_kernels<Set>()  family Set's set for active_isa(), latched once
//
// Kernel *sets* stay with their subsystems.  A family names its per-ISA sets
// as four static accessors on its set struct — Set::scalar(), Set::sse2(),
// Set::avx2(), Set::neon() — each defined by that ISA's translation unit
// behind its architecture guard.  Only the accessors this architecture can
// express are referenced below, so the others may stay undefined.  They are
// functions, not extern const objects, because cross-TU data references
// from a static archive need text relocations under a PIE link; calls
// don't.
//
// A family instantiates kernels_for/active_kernels only in its scalar
// translation unit.  An inline or template function used in an ISA-flagged
// unit (-mavx2) is emitted there with those instructions, and the linker may
// keep that copy for every caller, which would fault on a CPU without the
// ISA.  The common_simd_isa_units_test ctest checks that no
// ISA-flagged object defines a weak symbol another object also defines.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/require.hpp"

namespace unp::simd {

/// Instruction-set architectures a kernel set can be built for.
enum class Isa : std::uint8_t { kScalar, kSse2, kAvx2, kNeon };

[[nodiscard]] const char* to_string(Isa isa) noexcept;

/// True when this CPU can execute `isa`'s kernels.
[[nodiscard]] bool is_supported(Isa isa) noexcept;

/// Fastest ISA this CPU supports.
[[nodiscard]] Isa best_supported_isa() noexcept;

/// Every ISA this CPU supports, scalar first (test iteration order).
[[nodiscard]] std::vector<Isa> supported_isas();

/// Parse an UNP_KERNEL value ("scalar", "sse2", "avx2", "neon").
/// Returns true and sets `out` on success.
[[nodiscard]] bool parse_isa(std::string_view name, Isa& out) noexcept;

/// Dispatch decision given an UNP_KERNEL value (nullptr = unset): the
/// requested ISA when recognised and supported, else best_supported_isa().
/// On fallback, `warning` (if non-null) receives a one-line explanation.
[[nodiscard]] Isa resolve_isa(const char* env_value, std::string* warning);

/// The process-wide dispatch decision: resolved once from cpuid/HWCAP and
/// the UNP_KERNEL override on first use (a fallback warning goes to stderr
/// exactly once, no matter how many kernel families consult it).
[[nodiscard]] Isa active_isa();

/// Family `Set`'s kernel set for `isa`; requires is_supported(isa).
template <class Set>
[[nodiscard]] const Set& kernels_for(Isa isa) {
  UNP_REQUIRE(is_supported(isa));
  switch (isa) {
#if defined(__x86_64__) || defined(_M_X64)
    case Isa::kSse2:
      return Set::sse2();
    case Isa::kAvx2:
      return Set::avx2();
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return Set::neon();
#endif
    default:
      return Set::scalar();
  }
}

/// Family `Set`'s process-wide kernel set: kernels_for(active_isa()),
/// resolved on first use and latched for the life of the process.
template <class Set>
[[nodiscard]] const Set& active_kernels() {
  static const Set& active = kernels_for<Set>(active_isa());
  return active;
}

}  // namespace unp::simd
