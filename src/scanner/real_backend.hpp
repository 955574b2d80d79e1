// Resident-memory backend: the deployable half of the scanning tool.
//
// Owns a real allocation and implements the fused check-and-flip pass via
// the SIMD kernel layer (scanner/kernels), split across a thread pool in
// contiguous, cache-line-aligned lanes.  Mismatch reports are buffered per
// lane and merged in address order, so output is deterministic no matter
// how many threads run the pass — and byte-identical no matter which ISA
// the dispatcher picked.
//
// The pool can be borrowed from the caller (a campaign driver already owns
// one) or owned for standalone use.  Page retirement is honoured exactly
// like the simulated backend: masked word ranges are unmapped from the scan
// space — neither read, written, nor reported.
//
// On a healthy ECC machine this backend should never report a mismatch;
// running it for long enough on an unprotected machine is precisely the
// paper's experiment.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "scanner/backend.hpp"
#include "scanner/kernels/kernels.hpp"

namespace unp::scanner {

/// Buffers larger than this benefit from non-temporal stores: a sweep
/// touches every line exactly once, so caching the buffer only evicts
/// everything else.  Derived from the last-level cache size when the OS
/// reports it, with a conservative default otherwise.
[[nodiscard]] std::size_t nontemporal_threshold_bytes() noexcept;

class RealMemoryBackend final : public MemoryBackend {
 public:
  /// Allocates `bytes` (rounded down to whole words).  `threads` sizes an
  /// internal pool; 1 disables parallelism.
  explicit RealMemoryBackend(std::uint64_t bytes, std::size_t threads = 1);

  /// Same, but splits passes across `pool` (borrowed, not owned; must
  /// outlive the backend).  Lets a caller that already holds a pool share
  /// it instead of paying for a second set of worker threads.
  RealMemoryBackend(std::uint64_t bytes, ThreadPool& pool);

  [[nodiscard]] std::uint64_t word_count() const noexcept override {
    return words_.size();
  }
  void fill(Word value) override;
  void verify_and_write(Word expected, Word next,
                        const MismatchFn& report) override;

  /// Deliberately corrupt a word (fault-injection hook for tests/examples).
  /// Pokes into masked (retired) words are dropped, mirroring the simulated
  /// backend: nothing maps there anymore.
  void poke(std::uint64_t word_index, Word value);

  /// Direct read access (tests).
  [[nodiscard]] Word peek(std::uint64_t word_index) const;

  /// Retire (mask) `count` words starting at `first` — the actuation point
  /// of the policy engine's retire-page action.  Masked words are skipped
  /// by fill and verify_and_write; ranges may overlap and coalesce.
  void mask_words(std::uint64_t first, std::uint64_t count);

  [[nodiscard]] bool is_masked(std::uint64_t word) const noexcept;

  /// Total words currently masked (overlaps counted once).
  [[nodiscard]] std::uint64_t masked_word_count() const noexcept;

  /// Kernel set driving the sweep (the dispatcher's choice by default).
  [[nodiscard]] const kernels::Kernels& kernel_set() const noexcept {
    return *kernels_;
  }

  /// Force a specific kernel set (tests: cross-check ISA paths without
  /// re-execing under a different UNP_KERNEL).
  void set_kernel_set(const kernels::Kernels& k) noexcept { kernels_ = &k; }

  /// True when passes use non-temporal stores (buffer larger than the LLC).
  [[nodiscard]] bool uses_nontemporal_stores() const noexcept {
    return nontemporal_;
  }

 private:
  [[nodiscard]] ThreadPool* pool() const noexcept {
    return borrowed_pool_ != nullptr ? borrowed_pool_ : owned_pool_.get();
  }

  std::vector<Word> words_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< null when threads == 1
  ThreadPool* borrowed_pool_ = nullptr;     ///< caller-owned alternative
  const kernels::Kernels* kernels_;
  kernels::IntervalSet masked_;
  /// Per-lane mismatch buffers, reused across passes so dirty passes do not
  /// reallocate on the hot path.
  std::vector<std::vector<kernels::Hit>> lane_hits_;
  bool nontemporal_ = false;
};

}  // namespace unp::scanner
