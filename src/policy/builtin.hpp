// The built-in policies: the paper's three operational proposals run as
// online controllers.
//
//   ThresholdQuarantinePolicy   Table II: a day with more errors than the
//                               normal-regime threshold pulls the node for a
//                               fixed period; replay_quarantine_periods runs
//                               one shadow per period over a finished fault
//                               list.
//   PredictiveQuarantinePolicy  Section III-I: when the trailing error
//                               history crosses a threshold, tomorrow is
//                               at-risk — quarantine one day ahead and flag
//                               the node for placement avoidance.
//   AdaptiveCheckpointPolicy    Sections III-I/IV: keep the per-node day
//                               census live, emit interval-shrink actions as
//                               days go degraded, and report the
//                               static-vs-adaptive Young/Daly comparison
//                               once the campaign's regimes are final.
//   ProtectionSelectionPolicy   The ECC-evaluation actuator: escalate a
//                               node's modeled protection rung as its
//                               multi-bit fault history outgrows what the
//                               current code handles silently.  The rung
//                               costs come in as a menu of plain numbers
//                               lifted from unp_ecc's outcome tables.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "policy/policy.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/prediction.hpp"

namespace unp::policy {

class ThresholdQuarantinePolicy final : public Policy {
 public:
  struct Config {
    int period_days = 30;
    /// A day with more errors than this triggers quarantine (the regime
    /// threshold, as in Table II).
    std::uint64_t trigger_threshold = 3;
    /// Retire the page of an address after this many faults there
    /// (0 disables, as Table II does).
    std::uint64_t retire_page_repeats = 0;
  };

  ThresholdQuarantinePolicy() : ThresholdQuarantinePolicy(Config{}) {}
  explicit ThresholdQuarantinePolicy(Config config) : config_(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "threshold-quarantine";
  }
  [[nodiscard]] int period_days() const noexcept override {
    return config_.period_days;
  }
  void begin(const PolicyContext& ctx) override;
  void on_fault(const analysis::FaultRecord& fault, const NodeHealth& health,
                std::vector<Action>& actions) override;
  [[nodiscard]] std::string report() const override;

 private:
  Config config_;
  /// Fault count per (node, address); only kept when retirement is on.
  std::map<std::pair<int, std::uint64_t>, std::uint64_t> address_faults_;
  std::set<std::pair<int, std::uint64_t>> retired_pages_;
  std::uint64_t triggers_ = 0;
};

/// Table II: one default ThresholdQuarantinePolicy shadow per period,
/// replayed over a finished fault list in one PolicyEngine pass with
/// `excluded` left out of the ledgers.  Returns the quarantine ledger of
/// each period, in order.
[[nodiscard]] std::vector<QuarantineOutcome> replay_quarantine_periods(
    const CampaignWindow& window, analysis::FaultView faults,
    const std::vector<int>& periods,
    const std::vector<cluster::NodeId>& excluded);

class PredictiveQuarantinePolicy final : public Policy {
 public:
  struct Config {
    /// Window/threshold semantics shared with the batch evaluator.
    resilience::PredictorConfig predictor{};
    /// How long a predicted-bad node sits out (the paper's one-day-ahead
    /// proposal).
    int quarantine_days = 1;
  };

  PredictiveQuarantinePolicy() : PredictiveQuarantinePolicy(Config{}) {}
  explicit PredictiveQuarantinePolicy(Config config) : config_(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "predictive-quarantine";
  }
  [[nodiscard]] int period_days() const noexcept override {
    return config_.quarantine_days;
  }
  void begin(const PolicyContext& ctx) override;
  void on_fault(const analysis::FaultRecord& fault, const NodeHealth& health,
                std::vector<Action>& actions) override;
  [[nodiscard]] std::string report() const override;

 private:
  Config config_;
  /// Trailing per-node error history (only nodes that erred hold a window).
  std::map<int, resilience::TrailingDayWindow> history_;
  std::set<int> flagged_;
  std::uint64_t predictions_ = 0;
};

class AdaptiveCheckpointPolicy final : public Policy {
 public:
  struct Config {
    double checkpoint_cost_hours = 10.0 / 60.0;
    std::uint64_t normal_threshold = 3;
  };

  AdaptiveCheckpointPolicy() : AdaptiveCheckpointPolicy(Config{}) {}
  explicit AdaptiveCheckpointPolicy(Config config) : config_(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "adaptive-checkpoint";
  }
  void begin(const PolicyContext& ctx) override;
  void on_fault(const analysis::FaultRecord& fault, const NodeHealth& health,
                std::vector<Action>& actions) override;
  void finish(const FinalizeContext& ctx) override;
  [[nodiscard]] std::string report() const override;

  /// Final regime classification (valid after finish).  Identical to
  /// classify_regime_excluding_loudest over the finished extraction when the
  /// engine resolves the same exclusions.
  [[nodiscard]] const analysis::RegimeResult& regime() const noexcept {
    return regime_;
  }
  [[nodiscard]] const resilience::CheckpointComparison& comparison()
      const noexcept {
    return comparison_;
  }

 private:
  Config config_;
  CampaignWindow window_;
  std::size_t days_ = 0;
  /// Per-node, per-day census, exactly as analysis::RegimeAnalyzer keeps it
  /// (the excluded set is only known at finish).
  std::vector<std::uint64_t> counts_;  ///< [node * days_ + day]
  analysis::RegimeResult regime_;
  resilience::CheckpointComparison comparison_;
};

class ProtectionSelectionPolicy final : public Policy {
 public:
  /// One rung of the protection menu, in escalation order.  The fractions
  /// are plain numbers read off unp_ecc's population outcome table for the
  /// rung's code (silent = (miscorrect+sdc)/faults over multi-bit classes;
  /// overhead = check_bits/data_bits), so the policy layer needs no coding
  /// theory — the ECC engine did the evaluation offline.
  struct Rung {
    ProtectionLevel level = ProtectionLevel::kUnprotected;
    double silent_fraction = 1.0;  ///< multi-bit faults passing silently
    double overhead_fraction = 0.0;
    /// Multi-bit faults on a node before this rung is requested.
    std::uint64_t escalate_after = 0;
  };

  struct Config {
    /// Default menu: the unprotected baseline, then SECDED after the first
    /// multi-bit fault, chipkill after the third, large-block after the
    /// tenth.  Silent fractions are the exhaustive-table figures for the
    /// canonical codes (secded72 weight 3-4, chipkill >2 symbols, large
    /// 4KB/8); unp_ecc --population derives campaign-specific ones.
    std::vector<Rung> menu = {
        {ProtectionLevel::kUnprotected, 1.0, 0.0, 0},
        {ProtectionLevel::kSecded, 0.60, 0.125, 1},
        {ProtectionLevel::kChipkill, 0.05, 0.125, 3},
        {ProtectionLevel::kLargeBlock, 0.001, 0.0049, 10},
    };
  };

  ProtectionSelectionPolicy() : ProtectionSelectionPolicy(Config{}) {}
  explicit ProtectionSelectionPolicy(Config config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "protection-selection";
  }
  void begin(const PolicyContext& ctx) override;
  void on_fault(const analysis::FaultRecord& fault, const NodeHealth& health,
                std::vector<Action>& actions) override;
  [[nodiscard]] std::string report() const override;

 private:
  Config config_;
  std::vector<std::uint64_t> multibit_;  ///< per-node multi-bit fault count
  std::vector<std::uint8_t> rung_;       ///< per-node current menu index
  std::uint64_t escalations_ = 0;
  /// Multi-bit faults that arrived while the node sat on a rung whose menu
  /// silent fraction is < 1 (i.e. would likely have been caught), summed
  /// as expected-caught for the report.
  double expected_caught_ = 0.0;
};

}  // namespace unp::policy
