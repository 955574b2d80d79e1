// Open-loop request generator for unp_serve, plus the body check.
//
// The schedule fixes when each request is due; it never waits for the
// server.  `conns` client threads each hold one connection and take the
// next due request as soon as they are free, so when every connection is
// busy the request is sent late and its latency, timed from the due time,
// includes that wait.  Lateness (send - due) is kept per request so the
// report can show how far behind the generator ran.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace unp::perfbench {

struct ScheduledRequest {
  double due_s = 0.0;  ///< seconds after the generator's start
  std::string phase;   ///< "fixed", "r1000", ... (one rung of the ladder)
  std::string line;
};

struct RequestOutcome {
  bool ok = false;       ///< OK frame (false: ERR or transport failure)
  double send_s = 0.0;   ///< when the request left, seconds after start
  double done_s = 0.0;   ///< when the full response was read
  std::string body;      ///< response body (or the error text)
};

/// Read "due_us<TAB>phase<TAB>line" rows.  Throws ContractViolation on a
/// malformed row.
[[nodiscard]] std::vector<ScheduledRequest> read_schedule(
    const std::string& path);

/// Drive `schedule` (ascending due times, relative to `start`) against
/// 127.0.0.1:`port` over `conns` connections.  A connection that fails is
/// reopened for the next request; the failed request is recorded with
/// ok = false.
[[nodiscard]] std::vector<RequestOutcome> run_open_loop(
    std::uint16_t port, const std::vector<ScheduledRequest>& schedule,
    std::size_t conns, std::chrono::steady_clock::time_point start);

/// Count OK outcomes whose body differs from render_request_to_string over
/// the store at `store_path` (failed requests are counted by the caller).
/// Renders each distinct line once, on `threads` threads.
[[nodiscard]] std::size_t count_body_mismatches(
    const std::string& store_path,
    const std::vector<ScheduledRequest>& schedule,
    const std::vector<RequestOutcome>& outcomes, std::size_t threads);

}  // namespace unp::perfbench
