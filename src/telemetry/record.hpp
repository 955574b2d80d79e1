// Telemetry record types, mirroring the log entries of the original memory
// scanning tool (Section II-B):
//
//   START  - timestamp, host, allocated bytes, node temperature
//   ERROR  - timestamp, host, virtual address, expected value, actual value,
//            node temperature, physical page address
//   END    - timestamp, host, node temperature
//   ALLOC-FAIL - timestamp, host (logged to a separate file by the original)
//
// Temperature sensors only came online in April 2015; records before that
// carry no reading (`kNoTemperature`).
//
// Raw-volume note: a stuck fault is re-logged every scan iteration; the real
// campaign accumulated >25M ERROR lines that way.  The archive stores ERROR
// records as *runs* (first timestamp, period, count) so the full stream is
// represented exactly but compactly; expand() recovers individual records.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/topology.hpp"
#include "common/bitops.hpp"
#include "common/civil_time.hpp"

namespace unp::telemetry {

/// Sentinel for records written before the sensors came online.
constexpr double kNoTemperature = -1000.0;

/// True when `celsius` is a real reading.
[[nodiscard]] constexpr bool has_temperature(double celsius) noexcept {
  return celsius > -273.15;
}

struct StartRecord {
  TimePoint time = 0;
  cluster::NodeId node;
  std::uint64_t allocated_bytes = 0;
  double temperature_c = kNoTemperature;

  friend bool operator==(const StartRecord&, const StartRecord&) = default;
};

struct EndRecord {
  TimePoint time = 0;
  cluster::NodeId node;
  double temperature_c = kNoTemperature;

  friend bool operator==(const EndRecord&, const EndRecord&) = default;
};

struct AllocFailRecord {
  TimePoint time = 0;
  cluster::NodeId node;

  friend bool operator==(const AllocFailRecord&, const AllocFailRecord&) = default;
};

/// One observed mismatch of one 32-bit word.
struct ErrorRecord {
  TimePoint time = 0;
  cluster::NodeId node;
  std::uint64_t virtual_address = 0;  ///< byte address inside the scan buffer
  Word expected = 0;
  Word actual = 0;
  double temperature_c = kNoTemperature;
  std::uint64_t physical_page = 0;

  [[nodiscard]] Word flip_mask() const noexcept { return expected ^ actual; }
  [[nodiscard]] int flipped_bits() const noexcept {
    return flipped_bit_count(expected, actual);
  }

  friend bool operator==(const ErrorRecord&, const ErrorRecord&) = default;
};

/// A run of identical-location ERROR logs produced by a fault that persists
/// across iterations: `count` records starting at `first.time`, spaced
/// `period_s` seconds apart.  The expected/actual pair alternates phase for
/// the alternating pattern; `second_expected`/`second_actual` capture the
/// other phase (equal to first for single-phase visibility).
struct ErrorRun {
  ErrorRecord first;
  std::int64_t period_s = 0;  ///< spacing between successive logs (0 iff count==1)
  std::uint64_t count = 1;

  [[nodiscard]] TimePoint last_time() const noexcept {
    return first.time + period_s * static_cast<std::int64_t>(count - 1);
  }

  /// Materialize every record of the run (testing / small inputs only).
  [[nodiscard]] std::vector<ErrorRecord> expand() const;

  friend bool operator==(const ErrorRun&, const ErrorRun&) = default;
};

/// A node's session records (START, END, ALLOC-FAIL) without its error
/// runs: everything scan-time accounting reads.  A view into the log it
/// was taken from.
struct SessionRecords {
  std::span<const StartRecord> starts;
  std::span<const EndRecord> ends;
  std::span<const AllocFailRecord> alloc_fails;

  [[nodiscard]] bool empty() const noexcept {
    return starts.empty() && ends.empty() && alloc_fails.empty();
  }

  /// Scanning hours implied by START/END pairing.  Follows the paper's
  /// conservative rule: a START followed by another START (hard reboot, END
  /// lost) contributes zero hours.
  [[nodiscard]] double monitored_hours() const noexcept;

  /// Terabyte-hours scanned, weighting each complete session by its
  /// allocation size.  Same conservative pairing rule as monitored_hours.
  [[nodiscard]] double terabyte_hours() const noexcept;
};

/// Discriminated record for serialized streams.
enum class RecordKind : std::uint8_t { kStart, kEnd, kAllocFail, kError, kErrorRun };

}  // namespace unp::telemetry
