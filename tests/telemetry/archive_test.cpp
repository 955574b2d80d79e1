#include "telemetry/archive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace unp::telemetry {
namespace {

constexpr std::uint64_t kGiB = 1ULL << 30;

NodeLog make_session_log(TimePoint start, TimePoint end,
                         std::uint64_t bytes = 3 * kGiB) {
  NodeLog log;
  log.add_start({start, {1, 1}, bytes, 30.0});
  log.add_end({end, {1, 1}, 30.0});
  return log;
}

TEST(NodeLog, MonitoredHoursSimpleSession) {
  const NodeLog log = make_session_log(0, 7200);
  EXPECT_DOUBLE_EQ(log.monitored_hours(), 2.0);
}

TEST(NodeLog, MonitoredHoursMultipleSessions) {
  NodeLog log;
  log.add_start({0, {1, 1}, kGiB, 30.0});
  log.add_end({3600, {1, 1}, 30.0});
  log.add_start({10000, {1, 1}, kGiB, 30.0});
  log.add_end({10000 + 7200, {1, 1}, 30.0});
  EXPECT_DOUBLE_EQ(log.monitored_hours(), 3.0);
}

TEST(NodeLog, HardRebootContributesZero) {
  // START followed by another START (END lost): the paper's conservative
  // rule counts zero hours for the first session.
  NodeLog log;
  log.add_start({0, {1, 1}, kGiB, 30.0});
  log.add_start({50000, {1, 1}, kGiB, 30.0});  // reboot: no END in between
  log.add_end({50000 + 3600, {1, 1}, 30.0});
  EXPECT_DOUBLE_EQ(log.monitored_hours(), 1.0);
}

TEST(NodeLog, TrailingStartWithoutEnd) {
  NodeLog log;
  log.add_start({0, {1, 1}, kGiB, 30.0});
  EXPECT_DOUBLE_EQ(log.monitored_hours(), 0.0);
  EXPECT_DOUBLE_EQ(log.terabyte_hours(), 0.0);
}

TEST(NodeLog, TerabyteHoursWeightsAllocation) {
  // 3 GiB for 1 hour = 3/1024 TB-h.
  const NodeLog log = make_session_log(0, 3600, 3 * kGiB);
  EXPECT_NEAR(log.terabyte_hours(), 3.0 / 1024.0, 1e-9);
  // Hours are unchanged by allocation size; TB-h scale with it.
  const NodeLog small = make_session_log(0, 3600, kGiB);
  EXPECT_DOUBLE_EQ(small.monitored_hours(), 1.0);
  EXPECT_NEAR(small.terabyte_hours(), 1.0 / 1024.0, 1e-9);
}

TEST(NodeLog, RawErrorCountSumsRuns) {
  NodeLog log;
  ErrorRecord e;
  e.node = {1, 1};
  log.add_error(e);
  log.add_error_run({e, 150, 999});
  EXPECT_EQ(log.raw_error_count(), 1000u);
}

TEST(NodeLog, SortByTime) {
  NodeLog log;
  ErrorRecord late;
  late.time = 100;
  ErrorRecord early;
  early.time = 10;
  log.add_error(late);
  log.add_error(early);
  log.sort_by_time();
  EXPECT_EQ(log.error_runs()[0].first.time, 10);
}

// Sorting each appended batch with sort_error_runs_from and then calling
// sort_by_time() must give exactly the order of one global stable sort,
// ties included.  Each batch draws times from 5 values, so ties are common;
// the virtual address numbers the runs in append order, so any reordering
// of tied runs shows.  Trial kinds: session-like batches (disjoint,
// increasing time ranges); batches sharing one narrow range (runs tie
// across batches; the time span is below the run count, so the counting
// sort runs); and batches sharing a wide range (values 1000 s apart; the
// merge sort runs).
TEST(NodeLog, BatchSortsThenSortByTimeEqualOneGlobalStableSort) {
  std::mt19937_64 gen(7);
  for (int trial = 0; trial < 96; ++trial) {
    const bool session_like = trial % 3 == 0;
    const TimePoint step = trial % 3 == 2 ? 1000 : 1;
    NodeLog log;
    std::vector<ErrorRun> appended;
    std::uint64_t id = 0;
    const int batches = 1 + static_cast<int>(gen() % 8);
    for (int b = 0; b < batches; ++b) {
      const TimePoint lo = session_like ? 10 * b : 0;
      const std::size_t first = log.error_runs().size();
      const auto n = static_cast<std::size_t>(gen() % 40);
      for (std::size_t k = 0; k < n; ++k) {
        ErrorRun run;
        run.first.time = lo + step * static_cast<TimePoint>(gen() % 5);
        run.first.virtual_address = id++;
        log.add_error_run(run);
        appended.push_back(run);
      }
      log.sort_error_runs_from(first);
    }
    const auto by_time = [](const ErrorRun& a, const ErrorRun& b) {
      return a.first.time < b.first.time;
    };
    if (session_like) {
      EXPECT_TRUE(std::is_sorted(log.error_runs().begin(),
                                 log.error_runs().end(), by_time));
    }
    log.sort_by_time();
    std::stable_sort(appended.begin(), appended.end(), by_time);
    ASSERT_EQ(log.error_runs(), appended) << "trial " << trial;
  }
}

TEST(NodeLog, AddErrorRunsAppendsInOrder) {
  NodeLog log;
  ErrorRun a;
  a.first.time = 5;
  ErrorRun b;
  b.first.time = 1;
  log.add_error_run(a);
  const std::vector<ErrorRun> block{b, a};
  log.add_error_runs(block);
  ASSERT_EQ(log.error_runs().size(), 3u);
  EXPECT_EQ(log.error_runs()[1], b);
  EXPECT_EQ(log.error_runs()[2], a);
}

TEST(Archive, AggregatesAcrossNodes) {
  CampaignArchive archive;
  archive.log({0, 1}) = make_session_log(0, 3600);
  archive.log({5, 9}) = make_session_log(0, 7200);
  ErrorRecord e;
  e.node = {0, 1};
  archive.log({0, 1}).add_error(e);
  EXPECT_DOUBLE_EQ(archive.total_monitored_hours(), 3.0);
  EXPECT_NEAR(archive.total_terabyte_hours(), 9.0 / 1024.0, 1e-9);
  EXPECT_EQ(archive.total_raw_errors(), 1u);
}

TEST(Archive, WindowDefaultsToCampaign) {
  const CampaignArchive archive;
  EXPECT_EQ(archive.window().duration_days(), 394);
}

}  // namespace
}  // namespace unp::telemetry
