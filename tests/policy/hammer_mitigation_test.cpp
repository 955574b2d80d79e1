// Closed-loop hammer mitigation: the detector-driven retirement loop must
// retire >= 95% of the true victim rows while keeping false retirement
// bounded, and the online policy must emit retire-page actions the moment
// a row trips.
#include <gtest/gtest.h>

#include <set>

#include "faults/hammer/generator.hpp"
#include "policy/hammer.hpp"

namespace unp::policy {
namespace {

sim::CampaignConfig hammer_campaign() {
  sim::CampaignConfig config;
  config.seed = 17;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 10, 1, 0, 0, 0});
  config.faults.enable_hammer = true;
  config.faults.hammer.hammered_node_fraction = 0.10;
  config.faults.hammer.episodes_per_node_mean = 2.0;
  return config;
}

TEST(RowPages, Lpddr3RowIsExactlyOnePage) {
  const dram::mapping::DramMapping mapping(
      dram::mapping::make_mapping_config("lpddr3:mb"));
  const auto pages = row_pages(mapping, /*bank=*/5, /*row=*/1234);
  ASSERT_EQ(pages.size(), 1u);
  // 1024 columns x 4 bytes = 4 KiB: the row IS the page containing its
  // first word.
  const std::uint64_t first = mapping.encode({5, 1234, 0});
  EXPECT_EQ(pages[0], (first * 4) >> 12);
}

TEST(HammerMitigation, RetiresTrueVictimRowsWithBoundedFalseRetirement) {
  HammerLoopConfig config;
  config.campaign = hammer_campaign();
  config.threads = 8;
  const HammerMitigationResult result = run_hammer_mitigation(config);

  // The campaign genuinely hammers: dozens of victim rows fleet-wide.
  EXPECT_GT(result.true_victim_rows, 20u);

  // Acceptance gate: >= 95% of true victim rows retired.
  EXPECT_GE(result.recall, 0.95)
      << "retired_true=" << result.retired_true
      << " true_victim_rows=" << result.true_victim_rows;

  // False retirement stays bounded: spurious retirements (rows with
  // neither hammer ground truth nor a dense fault region) must be a small
  // fraction of all retirements, and collateral ones must be genuinely
  // dense by construction (classified as such only with >= min_distinct
  // ground-truth words).
  EXPECT_LE(result.retired_spurious,
            1 + result.rows_retired / 10)
      << "rows_retired=" << result.rows_retired;
  EXPECT_EQ(result.rows_retired,
            result.retired_true + result.retired_collateral +
                result.retired_spurious);

  // Retirement actually absorbs faults on re-simulation.
  EXPECT_GT(result.absorbed_faults, 0u);
  EXPECT_EQ(result.absorbed_faults,
            result.open_observed - result.closed_observed);
  EXPECT_LE(result.max_rounds_used, config.max_rounds);

  // The per-row ledger is consistent with the totals and in node order.
  std::uint64_t trues = 0;
  for (const RetiredRow& r : result.retired) {
    if (r.kind == RetiredRow::Kind::kTrue) ++trues;
  }
  EXPECT_EQ(trues, result.retired_true);
}

// Exact values of the seed-17 campaign, pinned so any refactor of the loop
// (its open pass, exclusions or re-simulation rounds) must reproduce them
// bit-for-bit.
TEST(HammerMitigation, Seed17CampaignPinned) {
  HammerLoopConfig config;
  config.campaign = hammer_campaign();
  config.threads = 3;
  const HammerMitigationResult r = run_hammer_mitigation(config);
  EXPECT_TRUE(r.excluded_nodes.empty());
  EXPECT_EQ(r.true_victim_rows, 481u);
  EXPECT_EQ(r.rows_retired, 521u);
  EXPECT_EQ(r.retired_true, 471u);
  EXPECT_EQ(r.retired_collateral, 50u);
  EXPECT_EQ(r.retired_spurious, 0u);
  EXPECT_EQ(r.open_observed, 8529u);
  EXPECT_EQ(r.closed_observed, 3502u);
  EXPECT_EQ(r.absorbed_faults, 5027u);
  EXPECT_EQ(r.max_rounds_used, 2);

  struct PinnedRow {
    cluster::NodeId node;
    std::uint32_t bank;
    std::uint64_t row;
    TimePoint trigger_time;
  };
  const PinnedRow first[] = {
      {{0, 5}, 13, 9398, 1441882169}, {{0, 5}, 13, 9400, 1441882169},
      {{0, 5}, 13, 9406, 1441883669}, {{0, 5}, 13, 9402, 1441883969},
      {{0, 5}, 13, 9404, 1441885469}, {{0, 5}, 13, 9396, 1441902188},
      {{0, 5}, 13, 9408, 1441909424}, {{0, 5}, 13, 9395, 1441943720},
      {{0, 5}, 13, 9409, 1441957220}, {{1, 11}, 10, 29362, 1441118618},
  };
  ASSERT_GE(r.retired.size(), std::size(first));
  for (std::size_t i = 0; i < std::size(first); ++i) {
    EXPECT_EQ(r.retired[i].node, first[i].node) << i;
    EXPECT_EQ(r.retired[i].bank, first[i].bank) << i;
    EXPECT_EQ(r.retired[i].row, first[i].row) << i;
    EXPECT_EQ(r.retired[i].trigger_time, first[i].trigger_time) << i;
    EXPECT_EQ(r.retired[i].kind, RetiredRow::Kind::kTrue) << i;
  }
}

TEST(HammerMitigation, DeterministicAcrossThreadCounts) {
  HammerLoopConfig config;
  config.campaign = hammer_campaign();
  // A shorter window keeps the two full runs cheap.
  config.campaign.window.end = from_civil_utc({2015, 9, 15, 0, 0, 0});

  config.threads = 1;
  const HammerMitigationResult a = run_hammer_mitigation(config);
  config.threads = 8;
  const HammerMitigationResult b = run_hammer_mitigation(config);

  EXPECT_EQ(a.rows_retired, b.rows_retired);
  EXPECT_EQ(a.retired_true, b.retired_true);
  EXPECT_EQ(a.retired_spurious, b.retired_spurious);
  EXPECT_EQ(a.open_observed, b.open_observed);
  EXPECT_EQ(a.closed_observed, b.closed_observed);
  ASSERT_EQ(a.retired.size(), b.retired.size());
  for (std::size_t i = 0; i < a.retired.size(); ++i) {
    EXPECT_EQ(a.retired[i].node, b.retired[i].node);
    EXPECT_EQ(a.retired[i].row, b.retired[i].row);
    EXPECT_EQ(a.retired[i].trigger_time, b.retired[i].trigger_time);
  }
}

TEST(HammerMitigation, RequiresHammerEnabledCampaign) {
  HammerLoopConfig config;
  config.campaign = hammer_campaign();
  config.campaign.faults.enable_hammer = false;
  EXPECT_THROW((void)run_hammer_mitigation(config), ContractViolation);
}

TEST(HammerMitigationPolicy, EmitsRetirePageOnTrigger) {
  HammerMitigationPolicy policy;
  EXPECT_EQ(policy.name(), "hammer-mitigation");

  const dram::mapping::DramMapping mapping(
      dram::mapping::make_mapping_config("lpddr3:mb"));
  const cluster::NodeId node{1, 2};
  std::vector<Action> actions;
  NodeHealth health;

  // Three distinct words of one (bank, row) within the window: the third
  // observation trips the detector and the policy retires the row's page.
  for (int i = 0; i < 3; ++i) {
    analysis::FaultRecord fault;
    fault.node = node;
    fault.first_seen = 1000 + i * 600;
    fault.virtual_address =
        mapping.encode({7, 4242, static_cast<std::uint64_t>(10 + 3 * i)}) * 4;
    policy.on_fault(fault, health, actions);
    if (i < 2) {
      EXPECT_TRUE(actions.empty());
    }
  }
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, ActionKind::kRetirePage);
  EXPECT_EQ(actions[0].node, node);
  EXPECT_EQ(actions[0].virtual_address,
            (mapping.encode({7, 4242, 0}) * 4) >> 12 << 12);
  EXPECT_EQ(policy.rows_retired(), 1u);

  // A fourth fault on the retired row does not re-trigger.
  analysis::FaultRecord fault;
  fault.node = node;
  fault.first_seen = 4000;
  fault.virtual_address = mapping.encode({7, 4242, 99}) * 4;
  policy.on_fault(fault, health, actions);
  EXPECT_EQ(actions.size(), 1u);
  EXPECT_NE(policy.report().find("1"), std::string::npos);
}

}  // namespace
}  // namespace unp::policy
