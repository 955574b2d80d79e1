#include "telemetry/archive.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace unp::telemetry {

namespace {

// Stable so records sharing a timestamp (several addresses caught in one
// scan pass) keep their stored order; parsing a serialized log must not
// permute ties.  The simulator appends most ranges in time order already,
// so check first: a stable sort of a sorted range is the identity, and
// skipping it skips stable_sort's scratch allocation too.
template <typename It, typename Cmp>
void stable_sort_if_needed(It first, It last, Cmp cmp) {
  if (!std::is_sorted(first, last, cmp)) std::stable_sort(first, last, cmp);
}

bool run_before(const ErrorRun& a, const ErrorRun& b) noexcept {
  return a.first.time < b.first.time;
}

/// Stable sort of error runs by time.  A counter-pattern scan session logs
/// one run per word per check, word after word: hundreds of thousands of
/// runs over a few thousand distinct check times.  When the time span is
/// narrower than the run count, a counting sort (count per second, prefix
/// sum, scatter in input order) places each run once instead of moving it
/// through every merge pass; otherwise a merge sort does.  Both are stable.
void stable_sort_runs(std::vector<ErrorRun>::iterator first,
                      std::vector<ErrorRun>::iterator last) {
  if (std::is_sorted(first, last, run_before)) return;
  const auto n = static_cast<std::uint64_t>(last - first);
  const auto [lo, hi] = std::minmax_element(first, last, run_before);
  // Unsigned offsets: well defined for any int64 times (decoded logs).
  const auto offset = [t0 = static_cast<std::uint64_t>(lo->first.time)](
                          const ErrorRun& r) {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(r.first.time) -
                                    t0);
  };
  const std::uint64_t span = offset(*hi);
  if (span >= n) {
    std::stable_sort(first, last, run_before);
    return;
  }
  std::vector<std::size_t> slot(static_cast<std::size_t>(span) + 2, 0);
  for (auto it = first; it != last; ++it) ++slot[offset(*it) + 1];
  for (std::size_t i = 1; i < slot.size(); ++i) slot[i] += slot[i - 1];
  std::vector<ErrorRun> sorted(static_cast<std::size_t>(n));
  for (auto it = first; it != last; ++it) sorted[slot[offset(*it)]++] = *it;
  std::copy(sorted.begin(), sorted.end(), first);
}

}  // namespace

std::uint64_t NodeLog::raw_error_count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& run : error_runs_) total += run.count;
  return total;
}

double NodeLog::monitored_hours() const noexcept {
  // Pair each START with the first END after it.  A START superseded by
  // another START before any END (hard reboot) contributes zero, per the
  // paper's conservative accounting.
  double hours = 0.0;
  std::size_t e = 0;
  for (std::size_t s = 0; s < starts_.size(); ++s) {
    while (e < ends_.size() && ends_[e].time < starts_[s].time) ++e;
    const TimePoint next_start =
        s + 1 < starts_.size() ? starts_[s + 1].time : 0;
    if (e < ends_.size() &&
        (s + 1 >= starts_.size() || ends_[e].time <= next_start)) {
      hours += static_cast<double>(ends_[e].time - starts_[s].time) /
               kSecondsPerHour;
      ++e;
    }
    // else: reboot case - no matching END before the next START.
  }
  return hours;
}

double NodeLog::terabyte_hours() const noexcept {
  constexpr double kBytesPerTb = 1099511627776.0;  // 2^40
  double tbh = 0.0;
  std::size_t e = 0;
  for (std::size_t s = 0; s < starts_.size(); ++s) {
    while (e < ends_.size() && ends_[e].time < starts_[s].time) ++e;
    const TimePoint next_start =
        s + 1 < starts_.size() ? starts_[s + 1].time : 0;
    if (e < ends_.size() &&
        (s + 1 >= starts_.size() || ends_[e].time <= next_start)) {
      const double hours =
          static_cast<double>(ends_[e].time - starts_[s].time) / kSecondsPerHour;
      tbh += hours * static_cast<double>(starts_[s].allocated_bytes) / kBytesPerTb;
      ++e;
    }
  }
  return tbh;
}

void NodeLog::append(const NodeLog& other) {
  starts_.insert(starts_.end(), other.starts_.begin(), other.starts_.end());
  ends_.insert(ends_.end(), other.ends_.begin(), other.ends_.end());
  alloc_fails_.insert(alloc_fails_.end(), other.alloc_fails_.begin(),
                      other.alloc_fails_.end());
  error_runs_.insert(error_runs_.end(), other.error_runs_.begin(),
                     other.error_runs_.end());
}

void NodeLog::sort_by_time() {
  auto by_time = [](const auto& a, const auto& b) { return a.time < b.time; };
  stable_sort_if_needed(starts_.begin(), starts_.end(), by_time);
  stable_sort_if_needed(ends_.begin(), ends_.end(), by_time);
  stable_sort_if_needed(alloc_fails_.begin(), alloc_fails_.end(), by_time);
  stable_sort_runs(error_runs_.begin(), error_runs_.end());
}

void NodeLog::sort_error_runs_from(std::size_t first) {
  UNP_REQUIRE(first <= error_runs_.size());
  stable_sort_runs(error_runs_.begin() + static_cast<std::ptrdiff_t>(first),
                   error_runs_.end());
}

std::uint64_t CampaignArchive::total_raw_errors() const noexcept {
  std::uint64_t total = 0;
  for (const auto& log : logs_) total += log.raw_error_count();
  return total;
}

double CampaignArchive::total_monitored_hours() const noexcept {
  double total = 0.0;
  for (const auto& log : logs_) total += log.monitored_hours();
  return total;
}

double CampaignArchive::total_terabyte_hours() const noexcept {
  double total = 0.0;
  for (const auto& log : logs_) total += log.terabyte_hours();
  return total;
}

}  // namespace unp::telemetry
