#include "policy/builtin.hpp"

#include <cstdio>
#include <memory>
#include <utility>

#include "common/require.hpp"
#include "policy/engine.hpp"

namespace unp::policy {

namespace {

std::string format(const char* fmt, auto... args) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), fmt, args...);
  return buffer;
}

}  // namespace

// --- ThresholdQuarantinePolicy ---------------------------------------------

void ThresholdQuarantinePolicy::begin(const PolicyContext&) {
  address_faults_.clear();
  retired_pages_.clear();
  triggers_ = 0;
}

void ThresholdQuarantinePolicy::on_fault(const analysis::FaultRecord& fault,
                                         const NodeHealth& health,
                                         std::vector<Action>& actions) {
  if (config_.retire_page_repeats > 0) {
    const int index = cluster::node_index(fault.node);
    const std::uint64_t seen =
        ++address_faults_[{index, fault.virtual_address}];
    if (seen >= config_.retire_page_repeats) {
      // One retire action per page; the engine's absorption makes repeats
      // invisible anyway, but a clean action log matters for the ledgers.
      const std::uint64_t page = fault.virtual_address >> 12;
      if (retired_pages_.insert({index, page}).second) {
        actions.push_back(Action{ActionKind::kRetirePage, fault.node,
                                 fault.first_seen, 0, fault.virtual_address,
                                 0.0});
      }
    }
  }
  if (config_.period_days > 0 &&
      health.errors_today > config_.trigger_threshold) {
    ++triggers_;
    actions.push_back(Action{ActionKind::kQuarantineNode, fault.node,
                             fault.first_seen, config_.period_days, 0, 0.0});
  }
}

std::string ThresholdQuarantinePolicy::report() const {
  return format("period %dd, trigger >%llu/day, %llu triggers",
                config_.period_days,
                static_cast<unsigned long long>(config_.trigger_threshold),
                static_cast<unsigned long long>(triggers_));
}

std::vector<QuarantineOutcome> replay_quarantine_periods(
    const CampaignWindow& window, analysis::FaultView faults,
    const std::vector<int>& periods,
    const std::vector<cluster::NodeId>& excluded) {
  PolicyEngine engine;
  for (const int period : periods) {
    UNP_REQUIRE(period >= 0);
    ThresholdQuarantinePolicy::Config config;
    config.period_days = period;
    engine.add_policy(std::make_unique<ThresholdQuarantinePolicy>(config));
  }
  std::vector<QuarantineOutcome> out;
  for (const PolicyOutcome& outcome : engine.replay(window, faults, excluded)) {
    out.push_back(outcome.quarantine);
  }
  return out;
}

// --- PredictiveQuarantinePolicy --------------------------------------------

void PredictiveQuarantinePolicy::begin(const PolicyContext&) {
  history_.clear();
  flagged_.clear();
  predictions_ = 0;
}

void PredictiveQuarantinePolicy::on_fault(const analysis::FaultRecord& fault,
                                          const NodeHealth& health,
                                          std::vector<Action>& actions) {
  const int index = cluster::node_index(fault.node);
  auto [it, inserted] = history_.try_emplace(
      index, resilience::TrailingDayWindow(config_.predictor.history_days));
  resilience::TrailingDayWindow& window = it->second;

  // The evidence available when this day began: errors on the trailing
  // window of days strictly before it (the batch evaluator's exact rule).
  if (window.sum_before(health.day) > config_.predictor.trigger_errors) {
    ++predictions_;
    if (flagged_.insert(index).second) {
      actions.push_back(Action{ActionKind::kAvoidPlacement, fault.node,
                               fault.first_seen, 0, 0, 0.0});
    }
    actions.push_back(Action{ActionKind::kQuarantineNode, fault.node,
                             fault.first_seen, config_.quarantine_days, 0,
                             0.0});
  }
  window.add(health.day, 1);
}

std::string PredictiveQuarantinePolicy::report() const {
  return format("history %dd, trigger >%llu, %llu at-risk hits, %zu nodes flagged",
                config_.predictor.history_days,
                static_cast<unsigned long long>(config_.predictor.trigger_errors),
                static_cast<unsigned long long>(predictions_),
                flagged_.size());
}

// --- AdaptiveCheckpointPolicy ----------------------------------------------

void AdaptiveCheckpointPolicy::begin(const PolicyContext& ctx) {
  window_ = ctx.window;
  days_ = static_cast<std::size_t>(window_.duration_days()) + 2;
  counts_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots) * days_, 0);
  regime_ = analysis::RegimeResult{};
  comparison_ = resilience::CheckpointComparison{};
}

void AdaptiveCheckpointPolicy::on_fault(const analysis::FaultRecord& fault,
                                        const NodeHealth& health,
                                        std::vector<Action>& actions) {
  const auto node = static_cast<std::size_t>(cluster::node_index(fault.node));
  if (health.day >= 0 && static_cast<std::size_t>(health.day) < days_) {
    ++counts_[node * days_ + static_cast<std::size_t>(health.day)];
  }

  // Live regime reaction: the instant a node's day crosses into degraded,
  // request a shorter interval sized to the day's error rate so far.  (The
  // authoritative fleet-wide comparison is computed at finish, once the
  // regimes are final.)
  if (health.errors_today == config_.normal_threshold + 1) {
    const double day_mtbf_h =
        24.0 / static_cast<double>(health.errors_today);
    actions.push_back(Action{
        ActionKind::kSetCheckpointInterval, fault.node, fault.first_seen, 0, 0,
        resilience::young_interval_hours(config_.checkpoint_cost_hours,
                                         day_mtbf_h)});
  }
}

void AdaptiveCheckpointPolicy::finish(const FinalizeContext& ctx) {
  std::vector<bool> excluded(static_cast<std::size_t>(cluster::kStudyNodeSlots),
                             false);
  for (const auto node : ctx.excluded_nodes) {
    excluded[static_cast<std::size_t>(cluster::node_index(node))] = true;
  }
  std::vector<std::uint64_t> errors_per_day(days_, 0);
  for (std::size_t node = 0;
       node < static_cast<std::size_t>(cluster::kStudyNodeSlots); ++node) {
    if (excluded[node]) continue;
    for (std::size_t d = 0; d < days_; ++d) {
      errors_per_day[d] += counts_[node * days_ + d];
    }
  }
  regime_ = analysis::classify_daily_counts(std::move(errors_per_day),
                                            config_.normal_threshold);
  comparison_ = resilience::compare_checkpoint_policies(
      regime_, config_.checkpoint_cost_hours);
  counts_.clear();
}

std::string AdaptiveCheckpointPolicy::report() const {
  return format(
      "static %.2fh waste %.4f -> adaptive %.2fh/%.2fh waste %.4f (%.1f%% less)",
      comparison_.static_interval_hours, comparison_.static_waste_fraction,
      comparison_.normal_interval_hours, comparison_.degraded_interval_hours,
      comparison_.adaptive_waste_fraction, 100.0 * comparison_.improvement());
}

// --- ProtectionSelectionPolicy ---------------------------------------------

ProtectionSelectionPolicy::ProtectionSelectionPolicy(Config config)
    : config_(std::move(config)) {
  // The menu must open with the resident baseline and escalate in strictly
  // increasing trigger order, or the rung walk below is ill-defined.
  UNP_REQUIRE(!config_.menu.empty());
  UNP_REQUIRE(config_.menu.front().escalate_after == 0);
  for (std::size_t i = 1; i < config_.menu.size(); ++i) {
    UNP_REQUIRE(config_.menu[i].escalate_after >
                config_.menu[i - 1].escalate_after);
  }
}

void ProtectionSelectionPolicy::begin(const PolicyContext&) {
  multibit_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots), 0);
  rung_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots), 0);
  escalations_ = 0;
  expected_caught_ = 0.0;
}

void ProtectionSelectionPolicy::on_fault(const analysis::FaultRecord& fault,
                                         const NodeHealth&,
                                         std::vector<Action>& actions) {
  if (!fault.is_multibit()) return;
  const auto index = static_cast<std::size_t>(cluster::node_index(fault.node));
  const std::uint64_t seen = ++multibit_[index];

  // Credit the rung that was in force when this fault landed.
  const Rung& current = config_.menu[rung_[index]];
  expected_caught_ += 1.0 - current.silent_fraction;

  // Walk up every rung the new count now clears (a burst can jump rungs).
  std::uint8_t target = rung_[index];
  while (static_cast<std::size_t>(target) + 1 < config_.menu.size() &&
         seen >= config_.menu[target + 1u].escalate_after) {
    ++target;
  }
  if (target != rung_[index]) {
    rung_[index] = target;
    ++escalations_;
    Action action;
    action.kind = ActionKind::kSetProtectionLevel;
    action.node = fault.node;
    action.time = fault.first_seen;
    action.protection = config_.menu[target].level;
    actions.push_back(action);
  }
}

std::string ProtectionSelectionPolicy::report() const {
  std::uint64_t multibit_total = 0;
  for (const std::uint64_t count : multibit_) multibit_total += count;
  return format(
      "%zu-rung menu, %llu multi-bit faults, %llu escalations, "
      "expected caught %.1f",
      config_.menu.size(), static_cast<unsigned long long>(multibit_total),
      static_cast<unsigned long long>(escalations_),
      expected_caught_);
}

}  // namespace unp::policy
