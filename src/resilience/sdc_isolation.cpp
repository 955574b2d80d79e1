#include "resilience/sdc_isolation.hpp"

#include <cstdlib>

namespace unp::resilience {

std::vector<IsolationReport> sdc_isolation_report(
    const std::vector<analysis::FaultRecord>& faults, int min_bits,
    std::int64_t window_s) {
  std::vector<IsolationReport> reports;
  for (const auto& f : faults) {
    if (f.flipped_bits() < min_bits) continue;
    IsolationReport report;
    report.fault = f;
    for (const auto& other : faults) {
      if (&other == &f) continue;
      if (other.node == f.node) {
        ++report.same_node_other_faults;
        if (other.flipped_bits() < min_bits) ++report.same_node_small_faults;
      }
      if (std::llabs(other.first_seen - f.first_seen) <= window_s) {
        ++report.same_time_other_faults;
      }
    }
    reports.push_back(report);
  }
  return reports;
}

}  // namespace unp::resilience
