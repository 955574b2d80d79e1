#include "policy/loop.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "common/bitops.hpp"
#include "common/require.hpp"
#include "sim/session_sim.hpp"

namespace unp::policy {

namespace {

/// Page (4 KiB) of a scan-space word: its virtual address is
/// word_index * sizeof(Word), as the session simulator logs it.
std::uint64_t page_of_word(std::uint64_t word_index) noexcept {
  return (word_index * sizeof(Word)) >> 12;
}

/// Everything one node's closed loop produced.
struct NodeOutcome {
  std::vector<Actuation> actuations;
  std::set<TimePoint> applied_cuts;
  std::set<std::uint64_t> retired_pages;
  std::int64_t quarantined_seconds = 0;
  std::int64_t scan_seconds_removed = 0;
  std::uint64_t entries = 0;
  std::uint64_t pages_retired = 0;
};

/// The threshold controller's step: replay it over what the latest round
/// observed, stop at the first actuation not applied yet and apply it.
bool quarantine_step(const ClosedLoopConfig& config,
                     const CampaignWindow& window, NodeRound& round,
                     NodeOutcome& out) {
  const ThresholdQuarantinePolicy::Config& ctl = config.controller;
  if (static_cast<int>(out.actuations.size()) >=
      config.max_actuations_per_node) {
    return false;
  }

  TimePoint until = 0;
  std::int64_t counting_day = -1;
  std::uint64_t errors_today = 0;
  std::map<std::uint64_t, std::uint64_t> addr_seen;
  for (const auto& f : round.faults) {
    if (ctl.period_days > 0 && f.first_seen < until) continue;
    const std::int64_t day = window.day_of_campaign(f.first_seen);
    if (day != counting_day) {
      counting_day = day;
      errors_today = 0;
    }
    ++errors_today;

    if (ctl.retire_page_repeats > 0 &&
        ++addr_seen[f.virtual_address] >= ctl.retire_page_repeats) {
      const std::uint64_t page = f.virtual_address >> 12;
      if (out.retired_pages.insert(page).second) {
        for (auto& ev : round.events) {
          std::erase_if(ev.words, [&](const faults::WordFault& w) {
            return page_of_word(w.word_index) == page;
          });
        }
        std::erase_if(round.events, [](const faults::FaultEvent& ev) {
          return ev.words.empty();
        });
        Actuation act;
        act.node = round.node;
        act.cut = {f.first_seen, f.first_seen};
        act.retired_page = page;
        act.is_retirement = true;
        out.actuations.push_back(act);
        ++out.pages_retired;
        return true;
      }
    }

    if (ctl.period_days > 0 && errors_today > ctl.trigger_threshold) {
      const TimePoint until_q = std::min(
          window.end, f.first_seen + static_cast<TimePoint>(ctl.period_days) *
                                         kSecondsPerDay);
      if (out.applied_cuts.insert(f.first_seen).second) {
        // Cut one second AFTER the trigger so the evidence that produced
        // the decision survives re-simulation (convergence note on top).
        Actuation act;
        act.node = round.node;
        act.cut = {f.first_seen + 1, until_q};
        act.summary =
            round.plan.subtract_window(act.cut, config.min_keep_seconds);
        out.scan_seconds_removed += act.summary.seconds_removed;
        out.quarantined_seconds += until_q - f.first_seen;
        ++out.entries;
        out.actuations.push_back(act);
        return true;
      }
      until = until_q;  // already actuated: keep suppressing past it
    }
  }
  return false;
}

}  // namespace

ClosedLoopDriver::ClosedLoopDriver(const sim::CampaignConfig& campaign,
                                   const analysis::ExtractionConfig& extraction,
                                   std::size_t threads)
    : campaign_(campaign),
      merge_window_s_(extraction.merge_window_s),
      pool_(threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr),
      fleet(sim::build_open_loop_fleet(campaign, pool_.get())),
      nodes(fleet.topology.monitored_nodes()),
      open_faults(nodes.size()),
      excluded(nodes.size(), false) {
  // A node at or over pathological_min_raw, the only kind the filter can
  // drop, keeps its log uncollapsed until the fleet total is known, so the
  // node the filter drops is never collapsed.  Nodes are visited heaviest
  // first (sim::node_cost_estimate), so the long pole starts at once
  // instead of when its index comes up; results are stored by index.
  const std::size_t n = nodes.size();
  std::vector<std::uint64_t> cost(n);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    cost[i] = sim::node_cost_estimate(fleet, i);
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });
  std::vector<std::uint64_t> raw(n, 0);
  std::vector<telemetry::NodeLog> deferred(n);
  run_parallel(n, [&](std::size_t visit) {
    const std::size_t i = order[visit];
    sim::SessionSimArena arena;
    telemetry::NodeLog log;
    sim::simulate_node_shared_into(
        campaign_.session, nodes[i], fleet.plans[i],
        cluster::Topology::is_overheating_slot(nodes[i]), fleet.session_seed,
        fleet.ground_truth, fleet.events_of(nodes[i]), arena, log);
    raw[i] = log.raw_error_count();
    if (raw[i] >= extraction.pathological_min_raw) {
      deferred[i] = std::move(log);
    } else {
      open_faults[i] =
          analysis::collapse_node_log(nodes[i], log, merge_window_s_);
    }
  });
  std::uint64_t raw_total = 0;
  for (const std::uint64_t r : raw) raw_total += r;
  for (std::size_t i = 0; i < n; ++i) {
    if (analysis::is_pathological_node(raw[i], raw_total, extraction)) {
      exclude(i);
    } else if (raw[i] >= extraction.pathological_min_raw) {
      open_faults[i] =
          analysis::collapse_node_log(nodes[i], deferred[i], merge_window_s_);
    }
  }
}

void ClosedLoopDriver::exclude(std::size_t i) {
  excluded[i] = true;
  excluded_nodes.push_back(nodes[i]);
}

std::vector<NodeRound> ClosedLoopDriver::converge(
    const std::function<bool(std::size_t i)>& select, const Step& step,
    int max_rounds) {
  std::vector<NodeRound> rounds(nodes.size());
  run_parallel(nodes.size(), [&](std::size_t i) {
    NodeRound& round = rounds[i];
    round.node = nodes[i];
    if (excluded[i] || !select(i)) return;
    round.plan = fleet.plans[i];
    for (const std::uint32_t e : fleet.events_of(round.node)) {
      round.events.push_back(fleet.ground_truth[e]);
    }
    round.faults = open_faults[i];
    round.rounds = 1;  // the open pass
    while (step(i, round) && round.rounds < max_rounds) {
      ++round.rounds;
      const telemetry::NodeLog log = sim::simulate_node(
          campaign_.session, round.node, round.plan, round.events,
          cluster::Topology::is_overheating_slot(round.node),
          fleet.session_seed);
      round.faults =
          analysis::collapse_node_log(round.node, log, merge_window_s_);
    }
    round.plan = sched::ScanPlan{};
    round.events = {};
  });
  return rounds;
}

void ClosedLoopDriver::run_parallel(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (pool_) {
    pool_->parallel_for(count, fn);
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
}

ClosedLoopResult run_closed_loop(const ClosedLoopConfig& config) {
  UNP_REQUIRE(config.threads >= 1);
  UNP_REQUIRE(config.controller.period_days >= 0);
  const CampaignWindow& window = config.campaign.window;

  // Open pass and pathological filter, then the loudest surviving node,
  // resolved exactly as the regime analyses resolve it.
  ClosedLoopDriver driver(config.campaign, config.extraction, config.threads);
  const auto& nodes = driver.nodes;
  const std::size_t n = nodes.size();
  std::size_t loudest = n;
  std::uint64_t loudest_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (driver.excluded[i]) continue;
    if (driver.open_faults[i].size() > loudest_count) {
      loudest_count = driver.open_faults[i].size();
      loudest = i;
    }
  }
  if (loudest < n && loudest_count > 0) driver.exclude(loudest);

  // Closed loop over every node that observed a fault.
  std::vector<NodeOutcome> outcomes(n);
  const std::vector<NodeRound> converged = driver.converge(
      [&](std::size_t i) { return !driver.open_faults[i].empty(); },
      [&](std::size_t i, NodeRound& round) {
        return quarantine_step(config, window, round, outcomes[i]);
      },
      std::numeric_limits<int>::max());

  // Fleet aggregation, in node order for determinism.
  ClosedLoopResult result;
  result.excluded_nodes = driver.excluded_nodes;
  const auto days =
      static_cast<std::size_t>(window.duration_days()) + 2;
  std::vector<std::uint64_t> errors_per_day(days, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (driver.excluded[i]) continue;
    const std::uint64_t open_faults = driver.open_faults[i].size();
    result.open_loop_errors += open_faults;
    const NodeOutcome& out = outcomes[i];
    const NodeRound& closed = converged[i];
    result.closed_loop_errors += closed.faults.size();
    result.quarantine_entries += out.entries;
    result.pages_retired += out.pages_retired;
    result.quarantined_seconds += out.quarantined_seconds;
    result.scan_seconds_removed += out.scan_seconds_removed;
    for (const auto& f : closed.faults) {
      const std::int64_t day = window.day_of_campaign(f.first_seen);
      if (day < 0 || static_cast<std::size_t>(day) >= days) continue;
      ++errors_per_day[static_cast<std::size_t>(day)];
    }
    for (const auto& act : out.actuations) result.actuations.push_back(act);
    if (open_faults > 0 || !out.actuations.empty()) {
      result.per_node.push_back(ClosedLoopNodeReport{
          nodes[i], open_faults, closed.faults.size(),
          static_cast<int>(out.actuations.size()), closed.rounds});
    }
  }

  const double campaign_hours =
      static_cast<double>(window.duration_seconds()) / kSecondsPerHour;
  result.open_mtbf_hours =
      result.open_loop_errors > 0
          ? campaign_hours / static_cast<double>(result.open_loop_errors)
          : campaign_hours;
  result.closed_mtbf_hours =
      result.closed_loop_errors > 0
          ? campaign_hours / static_cast<double>(result.closed_loop_errors)
          : campaign_hours;
  result.node_days_quarantined =
      static_cast<double>(result.quarantined_seconds) / kSecondsPerDay;
  result.availability_loss =
      result.node_days_quarantined /
      (static_cast<double>(cluster::kStudyNodeSlots) *
       static_cast<double>(window.duration_days()));

  result.regime = analysis::classify_daily_counts(
      errors_per_day, config.controller.trigger_threshold);
  result.checkpoint = resilience::compare_checkpoint_policies(
      result.regime, config.checkpoint_cost_hours);

  // Causal checkpointing: day d's interval is chosen from day d-1's regime
  // (the information actually available at the start of d).
  const std::size_t total_days = result.regime.errors_per_day.size();
  if (total_days > 0) {
    double static_sum = 0.0, adaptive_sum = 0.0;
    for (std::size_t d = 0; d < total_days; ++d) {
      const std::uint64_t errors = result.regime.errors_per_day[d];
      const double day_mtbf =
          errors > 0 ? 24.0 / static_cast<double>(errors) : 1e6;
      const bool yesterday_degraded = d > 0 && result.regime.degraded[d - 1];
      const double interval = yesterday_degraded
                                  ? result.checkpoint.degraded_interval_hours
                                  : result.checkpoint.normal_interval_hours;
      static_sum += resilience::waste_fraction(
          result.checkpoint.static_interval_hours,
          config.checkpoint_cost_hours, day_mtbf);
      adaptive_sum += resilience::waste_fraction(
          interval, config.checkpoint_cost_hours, day_mtbf);
    }
    result.causal_static_waste = static_sum / static_cast<double>(total_days);
    result.causal_adaptive_waste =
        adaptive_sum / static_cast<double>(total_days);
  }
  return result;
}

}  // namespace unp::policy
