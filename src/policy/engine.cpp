#include "policy/engine.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace unp::policy {

namespace {

/// Key of one (node, page) pair in a shadow's retired set.
std::uint64_t page_key(cluster::NodeId node, std::uint64_t page) noexcept {
  return (static_cast<std::uint64_t>(cluster::node_index(node)) << 32) | page;
}

}  // namespace

PolicyEngine::PolicyEngine(Config config)
    : config_(config), extractor_(config.extraction) {
  extractor_.set_node_observer(
      [this](cluster::NodeId node,
             std::span<const analysis::FaultRecord> faults) {
        dispatch_node(node, faults);
      });
}

std::size_t PolicyEngine::add_policy(std::unique_ptr<Policy> policy) {
  UNP_REQUIRE(policy != nullptr);
  Shadow shadow;
  shadow.policy = std::move(policy);
  shadow.nodes.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots), {});
  shadow.protection.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots),
                           0);
  shadows_.push_back(std::move(shadow));
  return shadows_.size() - 1;
}

void PolicyEngine::begin_campaign(const CampaignWindow& window) {
  finished_ = false;
  extractor_.begin_campaign(window);
  begin_shadows(window);
}

void PolicyEngine::begin_shadows(const CampaignWindow& window) {
  window_ = window;
  for (auto& shadow : shadows_) {
    shadow.nodes.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots), {});
    shadow.retired.clear();
    shadow.flagged.clear();
    shadow.log.clear();
    shadow.pages_retired = 0;
    shadow.interval_changes = 0;
    shadow.protection_changes = 0;
    shadow.protection.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots),
                             0);
    shadow.policy->begin(PolicyContext{window, config_.fleet_nodes});
  }
}

void PolicyEngine::on_start(const telemetry::StartRecord& r) {
  extractor_.on_start(r);
}
void PolicyEngine::on_end(const telemetry::EndRecord& r) { extractor_.on_end(r); }
void PolicyEngine::on_alloc_fail(const telemetry::AllocFailRecord& r) {
  extractor_.on_alloc_fail(r);
}
void PolicyEngine::on_error_run(const telemetry::ErrorRun& r) {
  extractor_.on_error_run(r);
}
void PolicyEngine::end_node(cluster::NodeId node) { extractor_.end_node(node); }

void PolicyEngine::dispatch_node(cluster::NodeId node,
                                 std::span<const analysis::FaultRecord> faults) {
  // The canonical extraction order restricted to one node: policies see the
  // exact per-node sequence a global-time batch replay would project out.
  scratch_.assign(faults.begin(), faults.end());
  std::sort(scratch_.begin(), scratch_.end(),
            [](const analysis::FaultRecord& a, const analysis::FaultRecord& b) {
              if (a.first_seen != b.first_seen) return a.first_seen < b.first_seen;
              return a.virtual_address < b.virtual_address;
            });

  const auto index = static_cast<std::size_t>(cluster::node_index(node));
  std::vector<Action> emitted;
  for (auto& shadow : shadows_) {
    NodeState& state = shadow.nodes[index];
    for (const auto& f : scratch_) {
      if (!shadow.retired.empty() &&
          shadow.retired.count(
              page_key(node, f.virtual_address / config_.page_bytes)) > 0) {
        ++state.retired_absorbed;
        continue;
      }
      if (f.first_seen < state.quarantined_until) {
        ++state.suppressed;
        continue;
      }
      const std::int64_t day = window_.day_of_campaign(f.first_seen);
      if (day != state.counting_day) {
        state.counting_day = day;
        state.errors_today = 0;
      }
      ++state.errors_today;
      ++state.counted;

      emitted.clear();
      shadow.policy->on_fault(
          f, NodeHealth{day, state.errors_today, state.counted}, emitted);
      for (const Action& action : emitted) {
        apply(shadow, state, action);
        shadow.log.push_back(action);
      }
    }
  }
}

void PolicyEngine::apply(Shadow& shadow, NodeState& state, const Action& action) {
  switch (action.kind) {
    case ActionKind::kQuarantineNode: {
      const TimePoint until = std::min(
          window_.end,
          action.time + static_cast<TimePoint>(action.quarantine_days) *
                            kSecondsPerDay);
      state.quarantined_seconds += until - action.time;
      state.quarantined_until = until;
      ++state.entries;
      break;
    }
    case ActionKind::kRetirePage: {
      const auto [it, inserted] = shadow.retired.insert(
          page_key(action.node, action.virtual_address / config_.page_bytes));
      if (inserted) ++shadow.pages_retired;
      break;
    }
    case ActionKind::kSetCheckpointInterval:
      ++shadow.interval_changes;
      break;
    case ActionKind::kAvoidPlacement:
      shadow.flagged.insert(cluster::node_index(action.node));
      break;
    case ActionKind::kSetProtectionLevel: {
      auto& current = shadow.protection[static_cast<std::size_t>(
          cluster::node_index(action.node))];
      const auto requested = static_cast<std::uint8_t>(action.protection);
      if (current != requested) {
        current = requested;
        ++shadow.protection_changes;
      }
      break;
    }
  }
}

EngineResult PolicyEngine::finish() {
  UNP_REQUIRE(!finished_);
  finished_ = true;

  EngineResult result;
  result.extraction = extractor_.finish();  // dispatches any frameless nodes
  result.excluded_nodes = result.extraction.removed_nodes;

  if (config_.exclude_loudest) {
    // Identical resolution to classify_regime_excluding_loudest: totals over
    // the filtered faults, first maximum wins, excluded only if it erred.
    std::vector<std::uint64_t> totals(
        static_cast<std::size_t>(cluster::kStudyNodeSlots), 0);
    for (const auto& f : result.extraction.faults) {
      ++totals[static_cast<std::size_t>(cluster::node_index(f.node))];
    }
    const auto loudest = static_cast<std::size_t>(std::distance(
        totals.begin(), std::max_element(totals.begin(), totals.end())));
    if (totals[loudest] > 0) {
      result.loudest = cluster::node_from_index(static_cast<int>(loudest));
      result.excluded_nodes.push_back(*result.loudest);
    }
  }

  result.outcomes = aggregate(result.excluded_nodes);
  return result;
}

std::vector<PolicyOutcome> PolicyEngine::replay(
    const CampaignWindow& window, analysis::FaultView faults,
    const std::vector<cluster::NodeId>& excluded) {
  begin_shadows(window);
  // Group by node, the unit dispatch_node replays (it restores each node's
  // time order itself).
  std::vector<analysis::FaultRecord> by_node(faults.begin(), faults.end());
  std::stable_sort(by_node.begin(), by_node.end(),
                   [](const analysis::FaultRecord& a,
                      const analysis::FaultRecord& b) {
                     return cluster::node_index(a.node) <
                            cluster::node_index(b.node);
                   });
  for (auto first = by_node.begin(); first != by_node.end();) {
    const auto last =
        std::find_if(first, by_node.end(), [&](const analysis::FaultRecord& f) {
          return f.node != first->node;
        });
    dispatch_node(first->node, {first, last});
    first = last;
  }
  return aggregate(excluded);
}

std::vector<PolicyOutcome> PolicyEngine::aggregate(
    const std::vector<cluster::NodeId>& excluded_nodes) {
  std::vector<bool> excluded(static_cast<std::size_t>(cluster::kStudyNodeSlots),
                             false);
  for (const auto node : excluded_nodes) {
    excluded[static_cast<std::size_t>(cluster::node_index(node))] = true;
  }
  const double campaign_hours =
      static_cast<double>(window_.duration_seconds()) / kSecondsPerHour;

  std::vector<PolicyOutcome> outcomes;
  for (auto& shadow : shadows_) {
    shadow.policy->finish(FinalizeContext{window_, excluded_nodes});

    PolicyOutcome outcome;
    outcome.policy_name = std::string(shadow.policy->name());
    QuarantineOutcome& q = outcome.quarantine;
    q.period_days = shadow.policy->period_days();
    std::uint64_t flags = 0;
    for (std::size_t i = 0; i < shadow.nodes.size(); ++i) {
      if (excluded[i]) continue;
      const NodeState& state = shadow.nodes[i];
      q.counted_errors += state.counted;
      q.suppressed_errors += state.suppressed;
      q.quarantine_entries += state.entries;
      q.quarantined_seconds += state.quarantined_seconds;
      outcome.retired_absorbed_errors += state.retired_absorbed;
      if (shadow.flagged.count(static_cast<int>(i)) > 0) ++flags;
    }
    q.node_days_quarantined =
        static_cast<double>(q.quarantined_seconds) / kSecondsPerDay;
    q.system_mtbf_hours =
        q.counted_errors > 0
            ? campaign_hours / static_cast<double>(q.counted_errors)
            : campaign_hours;
    q.availability_loss =
        q.node_days_quarantined /
        (static_cast<double>(config_.fleet_nodes) *
         static_cast<double>(window_.duration_days()));

    outcome.pages_retired = shadow.pages_retired;
    outcome.placement_flags = flags;
    outcome.interval_changes = shadow.interval_changes;
    outcome.protection_changes = shadow.protection_changes;
    outcome.actions_emitted = shadow.log.size();
    outcome.report = shadow.policy->report();
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace unp::policy
