#include "scanner/real_backend.hpp"

#include <algorithm>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/require.hpp"

namespace unp::scanner {

namespace {

/// Lane boundaries are rounded up to whole cache lines so adjacent lanes
/// never store to the same line (no false sharing between workers).
constexpr std::size_t kCacheLineWords = 64 / sizeof(Word);

/// Split [0, n) into contiguous lanes of `chunk` words, one per worker,
/// with chunk a cache-line multiple.  Returns the number of non-empty
/// lanes (possibly fewer than `workers` once rounding makes chunks bigger).
std::size_t lane_partition(std::size_t n, std::size_t workers,
                           std::size_t& chunk) {
  chunk = (n + workers - 1) / workers;
  chunk = (chunk + kCacheLineWords - 1) / kCacheLineWords * kCacheLineWords;
  return (n + chunk - 1) / chunk;
}

}  // namespace

std::size_t nontemporal_threshold_bytes() noexcept {
  static const std::size_t threshold = [] {
    long llc = -1;
#if defined(_SC_LEVEL3_CACHE_SIZE)
    llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
    // No OS report: assume a mid-size LLC rather than guessing small —
    // non-temporal stores only pay off once the sweep cannot fit anyway.
    if (llc <= 0) return std::size_t{16} << 20;
    return static_cast<std::size_t>(llc);
  }();
  return threshold;
}

RealMemoryBackend::RealMemoryBackend(std::uint64_t bytes, std::size_t threads)
    : words_(static_cast<std::size_t>(bytes / sizeof(Word)), 0),
      kernels_(&kernels::active_kernels()),
      nontemporal_(bytes > nontemporal_threshold_bytes()) {
  UNP_REQUIRE(bytes >= sizeof(Word));
  UNP_REQUIRE(threads >= 1);
  if (threads > 1) owned_pool_ = std::make_unique<ThreadPool>(threads);
}

RealMemoryBackend::RealMemoryBackend(std::uint64_t bytes, ThreadPool& pool)
    : words_(static_cast<std::size_t>(bytes / sizeof(Word)), 0),
      borrowed_pool_(&pool),
      kernels_(&kernels::active_kernels()),
      nontemporal_(bytes > nontemporal_threshold_bytes()) {
  UNP_REQUIRE(bytes >= sizeof(Word));
}

void RealMemoryBackend::fill(Word value) {
  const std::size_t n = words_.size();
  ThreadPool* tp = pool();
  const std::size_t workers = tp != nullptr ? tp->thread_count() : 1;
  std::size_t chunk = 0;
  const std::size_t lanes = lane_partition(n, workers, chunk);

  auto fill_lane = [&](std::size_t lane) {
    const std::size_t begin = lane * chunk;
    const std::size_t end = std::min(begin + chunk, n);
    kernels::masked_fill(*kernels_, words_.data() + begin, end - begin, begin,
                         value, nontemporal_, masked_);
  };
  if (tp != nullptr && lanes > 1) {
    tp->parallel_for(lanes, fill_lane);
  } else {
    for (std::size_t lane = 0; lane < lanes; ++lane) fill_lane(lane);
  }
}

void RealMemoryBackend::verify_and_write(Word expected, Word next,
                                         const MismatchFn& report) {
  const std::size_t n = words_.size();
  ThreadPool* tp = pool();
  const std::size_t workers = tp != nullptr ? tp->thread_count() : 1;
  std::size_t chunk = 0;
  const std::size_t lanes = lane_partition(n, workers, chunk);
  if (lane_hits_.size() < lanes) lane_hits_.resize(lanes);

  auto scan_lane = [&](std::size_t lane) {
    auto& hits = lane_hits_[lane];
    if (hits.capacity() == 0) hits.reserve(64);
    hits.clear();
    const std::size_t begin = lane * chunk;
    const std::size_t end = std::min(begin + chunk, n);
    if (masked_.empty()) {
      kernels_->verify_and_write(words_.data() + begin, end - begin, begin,
                                 expected, next, nontemporal_, hits);
    } else {
      kernels::masked_verify_and_write(*kernels_, words_.data() + begin,
                                       end - begin, begin, expected, next,
                                       nontemporal_, masked_, hits);
    }
  };
  if (tp != nullptr && lanes > 1) {
    tp->parallel_for(lanes, scan_lane);
  } else {
    for (std::size_t lane = 0; lane < lanes; ++lane) scan_lane(lane);
  }

  // Lanes are contiguous and ascending and each lane's hits are ascending,
  // so lane order == address order.
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    for (const auto& hit : lane_hits_[lane]) report(hit.index, hit.actual);
  }
}

void RealMemoryBackend::poke(std::uint64_t word_index, Word value) {
  UNP_REQUIRE(word_index < words_.size());
  if (masked_.contains(word_index)) return;  // retired page: unmapped
  words_[static_cast<std::size_t>(word_index)] = value;
}

Word RealMemoryBackend::peek(std::uint64_t word_index) const {
  UNP_REQUIRE(word_index < words_.size());
  return words_[static_cast<std::size_t>(word_index)];
}

void RealMemoryBackend::mask_words(std::uint64_t first, std::uint64_t count) {
  UNP_REQUIRE(first < words_.size());
  masked_.insert(first, std::min(count, words_.size() - first));
}

bool RealMemoryBackend::is_masked(std::uint64_t word) const noexcept {
  return masked_.contains(word);
}

std::uint64_t RealMemoryBackend::masked_word_count() const noexcept {
  return masked_.total();
}

}  // namespace unp::scanner
