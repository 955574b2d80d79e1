#include "telemetry/record.hpp"

namespace unp::telemetry {

std::vector<ErrorRecord> ErrorRun::expand() const {
  std::vector<ErrorRecord> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ErrorRecord r = first;
    r.time = first.time + period_s * static_cast<std::int64_t>(i);
    out.push_back(r);
  }
  return out;
}

double SessionRecords::monitored_hours() const noexcept {
  // Pair each START with the first END after it.  A START superseded by
  // another START before any END (hard reboot) contributes zero, per the
  // paper's conservative accounting.
  double hours = 0.0;
  std::size_t e = 0;
  for (std::size_t s = 0; s < starts.size(); ++s) {
    while (e < ends.size() && ends[e].time < starts[s].time) ++e;
    const TimePoint next_start =
        s + 1 < starts.size() ? starts[s + 1].time : 0;
    if (e < ends.size() &&
        (s + 1 >= starts.size() || ends[e].time <= next_start)) {
      hours += static_cast<double>(ends[e].time - starts[s].time) /
               kSecondsPerHour;
      ++e;
    }
    // else: reboot case - no matching END before the next START.
  }
  return hours;
}

double SessionRecords::terabyte_hours() const noexcept {
  constexpr double kBytesPerTb = 1099511627776.0;  // 2^40
  double tbh = 0.0;
  std::size_t e = 0;
  for (std::size_t s = 0; s < starts.size(); ++s) {
    while (e < ends.size() && ends[e].time < starts[s].time) ++e;
    const TimePoint next_start =
        s + 1 < starts.size() ? starts[s + 1].time : 0;
    if (e < ends.size() &&
        (s + 1 >= starts.size() || ends[e].time <= next_start)) {
      const double hours =
          static_cast<double>(ends[e].time - starts[s].time) / kSecondsPerHour;
      tbh += hours * static_cast<double>(starts[s].allocated_bytes) / kBytesPerTb;
      ++e;
    }
  }
  return tbh;
}

}  // namespace unp::telemetry
