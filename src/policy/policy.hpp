// The online Policy interface and its outcome ledger.
//
// A Policy is a stateful controller fed independent faults as they are
// collapsed out of the live record stream.  It sees exactly what a real
// deployment would have seen at that moment — per-node error history, never
// the future, never another node's interleaved timeline — and reacts by
// emitting Actions.  The engine (engine.hpp) owns the bookkeeping both
// around and *for* the policy: it suppresses faults falling inside a
// quarantine the policy previously requested (they never reach on_fault,
// exactly as a pulled node logs nothing) and accounts every decision into a
// per-policy outcome ledger.
//
// Faults reach a policy per node in (first_seen, virtual_address) order —
// the canonical extraction order restricted to one node — because the
// campaign stream is node-ordered, not globally time-ordered (see
// telemetry/sink.hpp).  Policies whose state is per-node therefore behave
// bit-identically to a batch replay in global time order; policies needing
// fleet-wide time order must defer that part to finish().
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/extraction.hpp"
#include "policy/action.hpp"

namespace unp::policy {

/// What the engine knows about the node at the moment a fault is delivered.
struct NodeHealth {
  std::int64_t day = 0;            ///< campaign day of this fault
  std::uint64_t errors_today = 0;  ///< counted errors this day, incl. this one
  std::uint64_t errors_total = 0;  ///< counted errors this campaign, incl. this one
};

/// Campaign-level facts available when the stream opens.
struct PolicyContext {
  CampaignWindow window;
  int fleet_nodes = 945;
};

/// Facts only known once the stream has ended: the pathological nodes the
/// extraction filter removed plus (optionally) the loudest surviving node —
/// the exclusions every batch analysis applies before reporting.
struct FinalizeContext {
  CampaignWindow window;
  std::vector<cluster::NodeId> excluded_nodes;
};

/// Quarantine sub-ledger of one policy (Table II's row for a threshold
/// policy): what reached users, what quarantine absorbed, and the cost.
struct QuarantineOutcome {
  int period_days = 0;
  std::uint64_t counted_errors = 0;     ///< errors that reached users
  std::uint64_t suppressed_errors = 0;  ///< absorbed by quarantine
  std::uint64_t quarantine_entries = 0; ///< times any node entered quarantine
  /// Total quarantined time in exact integer seconds, so the sum (and the
  /// doubles derived from it) cannot depend on the order nodes are visited.
  std::int64_t quarantined_seconds = 0;
  double node_days_quarantined = 0.0;  ///< quarantined_seconds / 86400
  double system_mtbf_hours = 0.0;      ///< campaign hours / counted errors
  /// Node-availability loss over the whole campaign.
  double availability_loss = 0.0;
};

/// Counterfactual ledger of one policy over one campaign pass, aggregated
/// over non-excluded nodes only.
struct PolicyOutcome {
  std::string policy_name;
  QuarantineOutcome quarantine;
  std::uint64_t pages_retired = 0;
  std::uint64_t retired_absorbed_errors = 0;  ///< faults on retired pages
  std::uint64_t placement_flags = 0;          ///< nodes flagged kAvoidPlacement
  std::uint64_t interval_changes = 0;         ///< kSetCheckpointInterval count
  std::uint64_t protection_changes = 0;       ///< kSetProtectionLevel count
  std::uint64_t actions_emitted = 0;
  std::string report;  ///< policy-specific annotation from finish()
};

class Policy {
 public:
  virtual ~Policy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Quarantine period this policy uses for kQuarantineNode actions, for the
  /// outcome's period_days field (0 when the policy never quarantines).
  [[nodiscard]] virtual int period_days() const noexcept { return 0; }

  virtual void begin(const PolicyContext& /*ctx*/) {}

  /// One counted (non-suppressed, non-retired) fault.  Actions pushed into
  /// `actions` are applied by the engine immediately, in order.
  virtual void on_fault(const analysis::FaultRecord& fault,
                        const NodeHealth& health,
                        std::vector<Action>& actions) = 0;

  /// Stream over; excluded nodes resolved.  Policies holding fleet-wide
  /// state (the checkpoint policy's day census) finalize it here.
  virtual void finish(const FinalizeContext& /*ctx*/) {}

  /// One-line (or short multi-line) summary for the outcome ledger.
  [[nodiscard]] virtual std::string report() const { return {}; }
};

}  // namespace unp::policy
