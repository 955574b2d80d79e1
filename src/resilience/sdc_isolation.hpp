// Isolation of the faults beyond SECDED's guarantee (Section III-D).
//
// The paper finds that the seven >3-bit faults struck nodes with no other
// error during the whole study, uncorrelated with anything else in the
// system.  This module checks that property per fault.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/extraction.hpp"

namespace unp::resilience {

/// The isolation analysis of Section III-D: for each fault beyond SECDED's
/// guarantee (> 3 flipped bits in the paper's reading), check whether any
/// other fault occurred on the same node at all, or anywhere in the system
/// within `window_s` of it.
struct IsolationReport {
  analysis::FaultRecord fault;
  std::uint64_t same_node_other_faults = 0;   ///< any other fault, same node
  std::uint64_t same_node_small_faults = 0;   ///< same node, below min_bits
  std::uint64_t same_time_other_faults = 0;   ///< anywhere, within the window
};

[[nodiscard]] std::vector<IsolationReport> sdc_isolation_report(
    const std::vector<analysis::FaultRecord>& faults, int min_bits = 4,
    std::int64_t window_s = 3600);

}  // namespace unp::resilience
