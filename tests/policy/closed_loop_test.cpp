// Closed-loop campaign: actuated quarantines must reduce what the scanner
// observes, deterministically, with consistent accounting.
#include "policy/loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/civil_time.hpp"

namespace unp::policy {
namespace {

ClosedLoopConfig short_config(std::size_t threads = 1) {
  ClosedLoopConfig config;
  config.campaign.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.campaign.window.end = from_civil_utc({2015, 11, 1, 0, 0, 0});
  // Hair trigger so the short window reliably actuates.
  config.controller.trigger_threshold = 0;
  config.controller.period_days = 10;
  config.threads = threads;
  return config;
}

TEST(ClosedLoop, ActuationReducesObservedErrors) {
  const ClosedLoopResult result = run_closed_loop(short_config());
  EXPECT_GT(result.open_loop_errors, 0u);
  EXPECT_GT(result.quarantine_entries, 0u);
  EXPECT_LT(result.closed_loop_errors, result.open_loop_errors);
  EXPECT_GT(result.closed_mtbf_hours, result.open_mtbf_hours);
  EXPECT_GT(result.scan_seconds_removed, 0);
  EXPECT_GT(result.node_days_quarantined, 0.0);
}

TEST(ClosedLoop, AccountingIsConsistent) {
  const ClosedLoopResult result = run_closed_loop(short_config());

  std::uint64_t cuts = 0, retirements = 0;
  std::int64_t removed = 0;
  for (const Actuation& a : result.actuations) {
    if (a.is_retirement) {
      ++retirements;
    } else {
      ++cuts;
      removed += a.summary.seconds_removed;
    }
  }
  EXPECT_EQ(cuts, result.quarantine_entries);
  EXPECT_EQ(retirements, result.pages_retired);
  EXPECT_EQ(removed, result.scan_seconds_removed);

  std::uint64_t open = 0, closed = 0;
  int per_node_actuations = 0;
  for (const ClosedLoopNodeReport& node : result.per_node) {
    open += node.open_faults;
    closed += node.closed_faults;
    per_node_actuations += node.actuations;
    EXPECT_GE(node.rounds, 1);
  }
  EXPECT_EQ(open, result.open_loop_errors);
  EXPECT_EQ(closed, result.closed_loop_errors);
  EXPECT_EQ(static_cast<std::size_t>(per_node_actuations),
            result.actuations.size());
}

TEST(ClosedLoop, DeterministicAcrossRunsAndThreads) {
  const ClosedLoopResult a = run_closed_loop(short_config(1));
  const ClosedLoopResult b = run_closed_loop(short_config(1));
  const ClosedLoopResult c = run_closed_loop(short_config(2));
  for (const ClosedLoopResult* other : {&b, &c}) {
    EXPECT_EQ(a.open_loop_errors, other->open_loop_errors);
    EXPECT_EQ(a.closed_loop_errors, other->closed_loop_errors);
    EXPECT_EQ(a.quarantine_entries, other->quarantine_entries);
    EXPECT_EQ(a.quarantined_seconds, other->quarantined_seconds);
    EXPECT_EQ(a.scan_seconds_removed, other->scan_seconds_removed);
    EXPECT_EQ(a.actuations.size(), other->actuations.size());
    EXPECT_EQ(a.causal_static_waste, other->causal_static_waste);
    EXPECT_EQ(a.causal_adaptive_waste, other->causal_adaptive_waste);
  }
}

TEST(ClosedLoop, PageRetirementRemovesRepeatOffenders) {
  ClosedLoopConfig config = short_config();
  config.controller.period_days = 0;  // isolate retirement
  config.controller.retire_page_repeats = 2;
  const ClosedLoopResult result = run_closed_loop(config);
  // Whether any page repeats twice in two months is data-dependent; the
  // invariants that must hold either way:
  EXPECT_EQ(result.quarantine_entries, 0u);
  EXPECT_EQ(result.scan_seconds_removed, 0);
  EXPECT_LE(result.closed_loop_errors, result.open_loop_errors);
}


// Exact values of both configurations, pinned so any refactor of the loop
// (its open pass, exclusions or re-simulation rounds) must reproduce them
// bit-for-bit, as PaperQuarantine.TableII pins Table II.
struct PinnedNode {
  cluster::NodeId node;
  std::uint64_t open_faults;
  std::uint64_t closed_faults;
  int actuations;
  int rounds;
};

void expect_per_node(const ClosedLoopResult& result,
                     const std::vector<PinnedNode>& pinned) {
  ASSERT_EQ(result.per_node.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const ClosedLoopNodeReport& got = result.per_node[i];
    EXPECT_EQ(got.node, pinned[i].node) << i;
    EXPECT_EQ(got.open_faults, pinned[i].open_faults) << i;
    EXPECT_EQ(got.closed_faults, pinned[i].closed_faults) << i;
    EXPECT_EQ(got.actuations, pinned[i].actuations) << i;
    EXPECT_EQ(got.rounds, pinned[i].rounds) << i;
  }
}

TEST(ClosedLoop, ShortWindowQuarantinePinned) {
  const ClosedLoopResult r = run_closed_loop(short_config(2));
  EXPECT_EQ(r.open_loop_errors, 1328u);
  EXPECT_EQ(r.closed_loop_errors, 81u);
  EXPECT_EQ(r.quarantine_entries, 45u);
  EXPECT_EQ(r.pages_retired, 0u);
  EXPECT_EQ(r.quarantined_seconds, 36618058);
  EXPECT_EQ(r.scan_seconds_removed, 19756130);
  EXPECT_DOUBLE_EQ(r.open_mtbf_hours, 1.1024096385542168);
  EXPECT_DOUBLE_EQ(r.closed_mtbf_hours, 18.074074074074073);
  EXPECT_DOUBLE_EQ(r.node_days_quarantined, 423.82011574074073);
  EXPECT_DOUBLE_EQ(r.availability_loss, 0.0073522441797335544);
  EXPECT_DOUBLE_EQ(r.causal_static_waste, 0.13363127426147026);
  EXPECT_DOUBLE_EQ(r.causal_adaptive_waste, 0.32186162853005879);
  EXPECT_EQ(r.excluded_nodes, (std::vector<cluster::NodeId>{{2, 4}}));
  EXPECT_EQ(r.actuations.size(), 45u);
  expect_per_node(r, {
      {{0, 5}, 2, 2, 1, 2}, {{1, 11}, 3, 3, 1, 2}, {{2, 6}, 2, 2, 1, 2},
      {{2, 13}, 4, 4, 1, 2}, {{3, 4}, 2, 2, 1, 2}, {{4, 5}, 792, 4, 4, 5},
      {{5, 11}, 2, 2, 1, 2}, {{6, 11}, 1, 1, 1, 2}, {{9, 8}, 2, 2, 1, 2},
      {{14, 1}, 1, 1, 1, 2}, {{16, 5}, 2, 2, 1, 2}, {{18, 8}, 1, 1, 1, 2},
      {{21, 5}, 2, 2, 1, 2}, {{22, 13}, 1, 1, 1, 2}, {{24, 1}, 1, 1, 1, 2},
      {{24, 14}, 1, 1, 1, 2}, {{26, 3}, 1, 1, 1, 2}, {{27, 6}, 1, 1, 1, 2},
      {{29, 7}, 1, 1, 1, 2}, {{34, 3}, 1, 1, 1, 2}, {{35, 13}, 1, 1, 1, 2},
      {{35, 14}, 4, 4, 1, 2}, {{36, 8}, 4, 4, 1, 2}, {{36, 12}, 2, 2, 1, 2},
      {{37, 8}, 5, 5, 1, 2}, {{39, 0}, 1, 1, 1, 2}, {{39, 14}, 2, 2, 1, 2},
      {{41, 11}, 4, 4, 1, 2}, {{43, 0}, 1, 1, 1, 2}, {{48, 11}, 3, 3, 1, 2},
      {{50, 1}, 1, 1, 1, 2}, {{52, 6}, 1, 1, 1, 2}, {{53, 10}, 1, 1, 1, 2},
      {{53, 14}, 2, 2, 1, 2}, {{58, 2}, 462, 3, 3, 4}, {{58, 5}, 3, 3, 1, 2},
      {{59, 11}, 1, 1, 1, 2}, {{59, 13}, 2, 2, 1, 2}, {{60, 9}, 4, 4, 1, 2},
      {{62, 10}, 1, 1, 1, 2}
  });
}

TEST(ClosedLoop, ShortWindowPageRetirementPinned) {
  ClosedLoopConfig config = short_config(2);
  config.controller.period_days = 0;
  config.controller.retire_page_repeats = 2;
  const ClosedLoopResult r = run_closed_loop(config);
  // Each retirement unmaps the whole 4 KiB page its repeat offender sits in
  // (word_index * 4 >> 12), which silences both retired nodes.
  EXPECT_EQ(r.open_loop_errors, 1328u);
  EXPECT_EQ(r.closed_loop_errors, 74u);
  EXPECT_EQ(r.quarantine_entries, 0u);
  EXPECT_EQ(r.pages_retired, 2u);
  EXPECT_EQ(r.quarantined_seconds, 0);
  EXPECT_EQ(r.scan_seconds_removed, 0);
  EXPECT_DOUBLE_EQ(r.open_mtbf_hours, 1.1024096385542168);
  EXPECT_DOUBLE_EQ(r.closed_mtbf_hours, 19.783783783783782);
  EXPECT_DOUBLE_EQ(r.node_days_quarantined, 0.0);
  EXPECT_DOUBLE_EQ(r.availability_loss, 0.0);
  EXPECT_DOUBLE_EQ(r.causal_static_waste, 0.12772673238719601);
  EXPECT_DOUBLE_EQ(r.causal_adaptive_waste, 0.28455184222711044);
  EXPECT_EQ(r.excluded_nodes, (std::vector<cluster::NodeId>{{2, 4}}));
  EXPECT_EQ(r.actuations.size(), 2u);
  expect_per_node(r, {
      {{0, 5}, 2, 2, 0, 1}, {{1, 11}, 3, 3, 0, 1}, {{2, 6}, 2, 2, 0, 1},
      {{2, 13}, 4, 4, 0, 1}, {{3, 4}, 2, 2, 0, 1}, {{4, 5}, 792, 0, 1, 2},
      {{5, 11}, 2, 2, 0, 1}, {{6, 11}, 1, 1, 0, 1}, {{9, 8}, 2, 2, 0, 1},
      {{14, 1}, 1, 1, 0, 1}, {{16, 5}, 2, 2, 0, 1}, {{18, 8}, 1, 1, 0, 1},
      {{21, 5}, 2, 2, 0, 1}, {{22, 13}, 1, 1, 0, 1}, {{24, 1}, 1, 1, 0, 1},
      {{24, 14}, 1, 1, 0, 1}, {{26, 3}, 1, 1, 0, 1}, {{27, 6}, 1, 1, 0, 1},
      {{29, 7}, 1, 1, 0, 1}, {{34, 3}, 1, 1, 0, 1}, {{35, 13}, 1, 1, 0, 1},
      {{35, 14}, 4, 4, 0, 1}, {{36, 8}, 4, 4, 0, 1}, {{36, 12}, 2, 2, 0, 1},
      {{37, 8}, 5, 5, 0, 1}, {{39, 0}, 1, 1, 0, 1}, {{39, 14}, 2, 2, 0, 1},
      {{41, 11}, 4, 4, 0, 1}, {{43, 0}, 1, 1, 0, 1}, {{48, 11}, 3, 3, 0, 1},
      {{50, 1}, 1, 1, 0, 1}, {{52, 6}, 1, 1, 0, 1}, {{53, 10}, 1, 1, 0, 1},
      {{53, 14}, 2, 2, 0, 1}, {{58, 2}, 462, 0, 1, 2}, {{58, 5}, 3, 3, 0, 1},
      {{59, 11}, 1, 1, 0, 1}, {{59, 13}, 2, 2, 0, 1}, {{60, 9}, 4, 4, 0, 1},
      {{62, 10}, 1, 1, 0, 1}
  });

  // A retired page must absorb faults: every node that retired one sees
  // fewer faults closed-loop than open-loop.
  for (const Actuation& a : r.actuations) {
    if (!a.is_retirement) continue;
    const auto it = std::find_if(
        r.per_node.begin(), r.per_node.end(),
        [&](const ClosedLoopNodeReport& node) { return node.node == a.node; });
    ASSERT_NE(it, r.per_node.end()) << cluster::node_name(a.node);
    EXPECT_LT(it->closed_faults, it->open_faults) << cluster::node_name(a.node);
  }
}

}  // namespace
}  // namespace unp::policy
