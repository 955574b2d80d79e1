// The online policy engine: K policies shadow-evaluated in ONE campaign pass.
//
// PolicyEngine is a telemetry::RecordSink.  Plugged into
// sim::run_campaign_streaming (or a cache replay) it feeds an embedded
// StreamingExtractor; the extractor's node observer hands each node's freshly
// collapsed independent faults to the engine, which replays them through
// every registered policy against that policy's own per-node state:
//
//   - faults inside a quarantine the policy previously triggered are
//     suppressed (ledger: suppressed_errors) and never reach the policy;
//   - faults on a page the policy retired are absorbed (retired_absorbed);
//   - everything else is counted, the node's day census rolls, and the
//     policy's on_fault may emit Actions the engine applies on the spot.
//
// Policies share the stream but nothing else — independent state,
// independent action logs, independent outcome ledgers — which is what
// makes K-way shadow evaluation cost one campaign instead of K (benched by
// bench_perf_policy).
//
// Exclusions (the pathological node the extraction filter removes, plus the
// loudest surviving node) are only knowable at end of stream, so the engine
// keeps per-node ledgers and aggregates at finish() skipping the excluded
// set.
//
// One engine, two entries: the live RecordSink protocol above, and replay()
// over a finished fault list (an extraction's faults) against a caller-given
// excluded set.  Both run the same per-node dispatch and the same ledger
// aggregation, so a finished extraction replayed through the engine yields
// outcomes bit-identical to the live pass that produced it (asserted by
// tests/policy/engine_test.cpp).  Table II is K ThresholdQuarantinePolicy
// shadows in one replay (replay_quarantine_periods in builtin.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "analysis/streaming_extractor.hpp"
#include "policy/policy.hpp"
#include "telemetry/sink.hpp"

namespace unp::policy {

/// Everything one shadowed campaign pass produces.
struct EngineResult {
  analysis::ExtractionResult extraction;
  /// Pathological nodes removed by the filter, plus the loudest survivor
  /// when Config::exclude_loudest is set — the set every ledger skips.
  std::vector<cluster::NodeId> excluded_nodes;
  std::optional<cluster::NodeId> loudest;
  std::vector<PolicyOutcome> outcomes;  ///< one per registered policy
};

class PolicyEngine final : public telemetry::RecordSink {
 public:
  struct Config {
    analysis::ExtractionConfig extraction{};
    int fleet_nodes = 945;
    /// Also exclude the loudest non-pathological node from the ledgers
    /// (Table II and the regime analyses all do).
    bool exclude_loudest = true;
    /// Page granularity of kRetirePage absorption.
    std::uint64_t page_bytes = 4096;
  };

  PolicyEngine() : PolicyEngine(Config{}) {}
  explicit PolicyEngine(Config config);

  /// Register a policy (before the stream starts).  Returns its index into
  /// EngineResult::outcomes and actions().
  std::size_t add_policy(std::unique_ptr<Policy> policy);

  // RecordSink: forwards to the embedded extractor; faults dispatch to the
  // policies as each node's frame closes.
  void begin_campaign(const CampaignWindow& window) override;
  void on_start(const telemetry::StartRecord& r) override;
  void on_end(const telemetry::EndRecord& r) override;
  void on_alloc_fail(const telemetry::AllocFailRecord& r) override;
  void on_error_run(const telemetry::ErrorRun& r) override;
  void end_node(cluster::NodeId node) override;

  /// Finish the extraction, resolve exclusions, finalize every policy and
  /// aggregate the ledgers.  Call once, after end_campaign.
  [[nodiscard]] EngineResult finish();

  /// The batch entry: replay a finished fault list through every registered
  /// policy (each node's faults in (first_seen, virtual_address) order, as
  /// the live stream delivers them), then finalize every policy and
  /// aggregate the ledgers over the nodes outside `excluded`.  One outcome
  /// per registered policy.  Use instead of the RecordSink protocol, not
  /// after it; each call starts every policy afresh.
  [[nodiscard]] std::vector<PolicyOutcome> replay(
      const CampaignWindow& window, analysis::FaultView faults,
      const std::vector<cluster::NodeId>& excluded);

  /// Full action log of policy `k`, in emission order.
  [[nodiscard]] const std::vector<Action>& actions(std::size_t k) const {
    return shadows_[k].log;
  }

  [[nodiscard]] std::size_t policy_count() const noexcept {
    return shadows_.size();
  }

 private:
  /// Per-policy, per-node controller state and ledger.
  struct NodeState {
    TimePoint quarantined_until = 0;
    std::int64_t counting_day = -1;
    std::uint64_t errors_today = 0;
    std::uint64_t counted = 0;
    std::uint64_t suppressed = 0;
    std::uint64_t retired_absorbed = 0;
    std::uint64_t entries = 0;
    std::int64_t quarantined_seconds = 0;
  };

  struct Shadow {
    std::unique_ptr<Policy> policy;
    std::vector<NodeState> nodes;     ///< kStudyNodeSlots entries
    std::set<std::uint64_t> retired;  ///< node_index * 2^32 + page
    std::set<int> flagged;            ///< nodes with kAvoidPlacement
    std::vector<Action> log;
    std::uint64_t pages_retired = 0;
    std::uint64_t interval_changes = 0;
    std::uint64_t protection_changes = 0;
    /// Current protection rung per node (kSetProtectionLevel is only
    /// counted as a change when the requested rung actually differs).
    std::vector<std::uint8_t> protection;  ///< kStudyNodeSlots entries
  };

  /// Reset every shadow and begin its policy over `window`.
  void begin_shadows(const CampaignWindow& window);
  void dispatch_node(cluster::NodeId node,
                     std::span<const analysis::FaultRecord> faults);
  void apply(Shadow& shadow, NodeState& state, const Action& action);
  /// Finalize every policy and sum its per-node ledgers over the nodes
  /// outside `excluded` into one outcome per policy.
  [[nodiscard]] std::vector<PolicyOutcome> aggregate(
      const std::vector<cluster::NodeId>& excluded);

  Config config_;
  CampaignWindow window_;
  analysis::StreamingExtractor extractor_;
  std::vector<Shadow> shadows_;
  std::vector<analysis::FaultRecord> scratch_;  ///< per-node sort buffer
  bool finished_ = false;
};

}  // namespace unp::policy
