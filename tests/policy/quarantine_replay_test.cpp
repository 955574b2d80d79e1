// Table II's quarantine semantics, driven through the policy engine's
// replay entry: a ThresholdQuarantinePolicy shadow per period over a
// finished fault list (replay_quarantine_periods).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "policy/builtin.hpp"

namespace unp::policy {
namespace {

using analysis::FaultRecord;

FaultRecord fault(cluster::NodeId node, TimePoint t) {
  FaultRecord f;
  f.node = node;
  f.first_seen = t;
  f.last_seen = t;
  f.expected = 0xFFFFFFFFu;
  f.actual = 0xFFFFFFFEu;
  return f;
}

std::vector<FaultRecord> burst(cluster::NodeId node, const CampaignWindow& w,
                               int day, int count, int spacing_s = 600) {
  std::vector<FaultRecord> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(fault(node, w.start + day * kSecondsPerDay + 3600 +
                                  i * spacing_s));
  }
  return out;
}

/// One period's outcome, replayed with `excluded` left out of the ledger.
QuarantineOutcome replay_period(const std::vector<FaultRecord>& faults,
                                const CampaignWindow& w, int period_days,
                                const std::vector<cluster::NodeId>& excluded =
                                    {}) {
  return replay_quarantine_periods(w, faults, {period_days}, excluded).front();
}

TEST(Quarantine, DisabledCountsEverything) {
  const CampaignWindow w;
  const auto faults = burst({1, 1}, w, 10, 20);
  const QuarantineOutcome outcome = replay_period(faults, w, 0);
  EXPECT_EQ(outcome.counted_errors, 20u);
  EXPECT_EQ(outcome.suppressed_errors, 0u);
  EXPECT_DOUBLE_EQ(outcome.node_days_quarantined, 0.0);
}

TEST(Quarantine, TriggersAfterThreshold) {
  const CampaignWindow w;
  const auto faults = burst({1, 1}, w, 10, 20);
  const QuarantineOutcome outcome = replay_period(faults, w, 5);
  // Errors 1..4 counted (4th crosses the >3 threshold), the rest absorbed.
  EXPECT_EQ(outcome.counted_errors, 4u);
  EXPECT_EQ(outcome.suppressed_errors, 16u);
  EXPECT_EQ(outcome.quarantine_entries, 1u);
  EXPECT_NEAR(outcome.node_days_quarantined, 5.0, 0.01);
}

TEST(Quarantine, RecurringBurstsRetrigger) {
  const CampaignWindow w;
  std::vector<analysis::FaultRecord> faults = burst({1, 1}, w, 10, 20);
  auto later = burst({1, 1}, w, 30, 20);  // after the quarantine expires
  faults.insert(faults.end(), later.begin(), later.end());
  const QuarantineOutcome outcome = replay_period(faults, w, 5);
  EXPECT_EQ(outcome.quarantine_entries, 2u);
  EXPECT_EQ(outcome.counted_errors, 8u);
}

TEST(Quarantine, BurstInsideQuarantineAbsorbed) {
  const CampaignWindow w;
  std::vector<analysis::FaultRecord> faults = burst({1, 1}, w, 10, 20);
  auto inside = burst({1, 1}, w, 12, 20);  // still quarantined
  faults.insert(faults.end(), inside.begin(), inside.end());
  const QuarantineOutcome outcome = replay_period(faults, w, 10);
  EXPECT_EQ(outcome.quarantine_entries, 1u);
  EXPECT_EQ(outcome.counted_errors, 4u);
  EXPECT_EQ(outcome.suppressed_errors, 36u);
}

TEST(Quarantine, NodesIndependent) {
  const CampaignWindow w;
  std::vector<analysis::FaultRecord> faults = burst({1, 1}, w, 10, 20);
  auto other = burst({2, 2}, w, 10, 2);  // quiet node stays below threshold
  faults.insert(faults.end(), other.begin(), other.end());
  std::sort(faults.begin(), faults.end(),
            [](const FaultRecord& a, const FaultRecord& b) {
              return a.first_seen < b.first_seen;
            });
  const QuarantineOutcome outcome = replay_period(faults, w, 5);
  EXPECT_EQ(outcome.counted_errors, 6u);  // 4 from the loud one + 2 quiet
  EXPECT_EQ(outcome.quarantine_entries, 1u);
}

TEST(Quarantine, ExcludedNodeIgnoredEntirely) {
  const CampaignWindow w;
  const auto faults = burst({2, 4}, w, 10, 100);
  const QuarantineOutcome outcome = replay_period(faults, w, 5, {{2, 4}});
  EXPECT_EQ(outcome.counted_errors, 0u);
  EXPECT_EQ(outcome.suppressed_errors, 0u);
}

TEST(Quarantine, MtbfFromCountedErrors) {
  const CampaignWindow w;
  const auto faults = burst({1, 1}, w, 10, 20);
  const QuarantineOutcome outcome = replay_period(faults, w, 5);
  const double campaign_hours =
      static_cast<double>(w.duration_seconds()) / kSecondsPerHour;
  EXPECT_DOUBLE_EQ(outcome.system_mtbf_hours, campaign_hours / 4.0);
}

TEST(Quarantine, QuarantineClippedAtCampaignEnd) {
  const CampaignWindow w;
  const int last_day = static_cast<int>(w.duration_days()) - 2;
  const auto faults = burst({1, 1}, w, last_day, 10);
  const QuarantineOutcome outcome = replay_period(faults, w, 30);
  EXPECT_LT(outcome.node_days_quarantined, 3.0);
}

TEST(Quarantine, PeriodZeroAccumulatesNoSeconds) {
  const CampaignWindow w;
  const auto faults = burst({1, 1}, w, 10, 20);
  const QuarantineOutcome outcome = replay_period(faults, w, 0);
  EXPECT_EQ(outcome.quarantined_seconds, 0);
  EXPECT_EQ(outcome.quarantine_entries, 0u);
  EXPECT_DOUBLE_EQ(outcome.availability_loss, 0.0);
}

TEST(Quarantine, SingleEventNodeNeverTriggers) {
  const CampaignWindow w;
  const auto faults = burst({1, 1}, w, 10, 1);
  const QuarantineOutcome outcome = replay_period(faults, w, 30);
  EXPECT_EQ(outcome.counted_errors, 1u);
  EXPECT_EQ(outcome.suppressed_errors, 0u);
  EXPECT_EQ(outcome.quarantine_entries, 0u);
  EXPECT_EQ(outcome.quarantined_seconds, 0);
}

TEST(Quarantine, StraddlingWindowEndClipsExactSeconds) {
  const CampaignWindow w;
  const int last_day = static_cast<int>(w.duration_days()) - 2;
  const auto faults = burst({1, 1}, w, last_day, 10);
  const QuarantineOutcome outcome = replay_period(faults, w, 30);
  // The 4th error triggers; its 30-day quarantine is clipped at w.end and
  // the ledger holds the exact integer remainder.
  const TimePoint trigger =
      w.start + last_day * kSecondsPerDay + 3600 + 3 * 600;
  EXPECT_EQ(outcome.quarantine_entries, 1u);
  EXPECT_EQ(outcome.quarantined_seconds, w.end - trigger);
  EXPECT_DOUBLE_EQ(outcome.node_days_quarantined,
                   static_cast<double>(w.end - trigger) / kSecondsPerDay);
}

TEST(Quarantine, SweepMonotonicShape) {
  // Table II's qualitative shape: longer quarantine -> fewer (or equal)
  // surviving errors, more node-days, higher MTBF.
  const CampaignWindow w;
  std::vector<analysis::FaultRecord> faults;
  for (int day = 10; day < 300; day += 12) {
    auto b = burst({1, 1}, w, day, 30);
    faults.insert(faults.end(), b.begin(), b.end());
  }
  const auto sweep =
      replay_quarantine_periods(w, faults, {0, 5, 10, 15, 20, 25, 30}, {});
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LE(sweep[i].counted_errors, sweep[i - 1].counted_errors);
    EXPECT_GE(sweep[i].system_mtbf_hours, sweep[i - 1].system_mtbf_hours);
  }
  EXPECT_GT(sweep[1].node_days_quarantined, 0.0);
  EXPECT_GT(sweep.back().system_mtbf_hours, 10.0 * sweep.front().system_mtbf_hours);
}

}  // namespace
}  // namespace unp::policy
