#include "analysis/metrics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <random>
#include <string>

#include "telemetry/kernels/kernels.hpp"

namespace unp::analysis {
namespace {

constexpr std::uint64_t kGiB = 1ULL << 30;

FaultRecord fault(cluster::NodeId node, TimePoint t, int bits = 1,
                  double temp = 35.0) {
  FaultRecord f;
  f.node = node;
  f.first_seen = t;
  f.last_seen = t;
  f.expected = 0xFFFFFFFFu;
  Word mask = 0;
  for (int b = 0; b < bits; ++b) mask |= 1u << b;
  f.actual = f.expected ^ mask;
  f.temperature_c = temp;
  return f;
}

TEST(BitClass, Mapping) {
  EXPECT_EQ(bit_class(1), 0);
  EXPECT_EQ(bit_class(5), 4);
  EXPECT_EQ(bit_class(6), 5);
  EXPECT_EQ(bit_class(9), 5);
  EXPECT_STREQ(bit_class_label(0), "1");
  EXPECT_STREQ(bit_class_label(5), "6+");
}

TEST(Grids, HoursGridPlacesNodes) {
  telemetry::CampaignArchive archive;
  archive.log({5, 7}).add_start({0, {5, 7}, 3 * kGiB, 30.0});
  archive.log({5, 7}).add_end({7200, {5, 7}, 30.0});
  const Grid2D grid = hours_scanned_grid(archive);
  EXPECT_EQ(grid.rows(), 63u);
  EXPECT_EQ(grid.cols(), 15u);
  EXPECT_DOUBLE_EQ(grid.at(5, 7), 2.0);
  EXPECT_DOUBLE_EQ(grid.sum(), 2.0);
}

TEST(Grids, ErrorsGrid) {
  const std::vector<FaultRecord> faults{fault({2, 4}, 100), fault({2, 4}, 200),
                                        fault({10, 1}, 100)};
  const Grid2D grid = errors_grid(faults);
  EXPECT_DOUBLE_EQ(grid.at(2, 4), 2.0);
  EXPECT_DOUBLE_EQ(grid.at(10, 1), 1.0);
}

TEST(HourProfile, BucketsByLocalHour) {
  // 11:30 UTC in June = 13:30 CEST.
  const TimePoint t = from_civil_utc({2015, 6, 10, 11, 30, 0});
  const std::vector<FaultRecord> faults{fault({1, 1}, t, 2)};
  const HourOfDayProfile profile = hour_of_day_profile(faults);
  EXPECT_EQ(profile.counts[13][1], 1u);
  EXPECT_EQ(profile.total(13), 1u);
  EXPECT_EQ(profile.multibit(13), 1u);
  EXPECT_EQ(profile.multibit(11), 0u);
}

TEST(HourProfile, DayNightRatio) {
  std::vector<FaultRecord> faults;
  // 8 multi-bit by day (12:00 UTC winter = 13:00 local), 2 by night.
  for (int i = 0; i < 8; ++i) {
    faults.push_back(fault({1, 1}, from_civil_utc({2015, 2, 1 + i, 12, 0, 0}), 2));
  }
  for (int i = 0; i < 2; ++i) {
    faults.push_back(fault({1, 1}, from_civil_utc({2015, 2, 1 + i, 2, 0, 0}), 2));
  }
  const HourOfDayProfile profile = hour_of_day_profile(faults);
  EXPECT_DOUBLE_EQ(profile.day_night_ratio_multibit(), 4.0);
}

TEST(TemperatureProfile, SplitsByReadingPresence) {
  std::vector<FaultRecord> faults{
      fault({1, 1}, 100, 1, 35.0),
      fault({1, 1}, 200, 2, 65.0),
      fault({1, 1}, 300, 1, telemetry::kNoTemperature)};
  const TemperatureProfile profile = temperature_profile(faults);
  EXPECT_EQ(profile.without_reading, 1u);
  // 35 degC lands in bin (35-20)/2 = 7; 65 degC in bin 22.
  EXPECT_EQ(profile.by_class[0].count(7), 1u);
  EXPECT_EQ(profile.by_class[1].count(22), 1u);
}

TEST(DailySeries, TerabyteHoursSplitAcrossDays) {
  telemetry::CampaignArchive archive;
  const CampaignWindow w = archive.window();
  // A 3 GiB session from 22:00 local on day 3 to 02:00 local on day 4.
  const TimePoint start = w.start + 3 * kSecondsPerDay + 21 * kSecondsPerHour;
  archive.log({1, 1}).add_start({start, {1, 1}, 3 * kGiB, 30.0});
  archive.log({1, 1}).add_end({start + 4 * kSecondsPerHour, {1, 1}, 30.0});
  const auto series = daily_terabyte_hours(archive);
  const double tb = 3.0 / 1024.0;
  EXPECT_NEAR(series[3], 2.0 * tb, 1e-9);
  EXPECT_NEAR(series[4], 2.0 * tb, 1e-9);
  double total = 0.0;
  for (double v : series) total += v;
  EXPECT_NEAR(total, 4.0 * tb, 1e-9);
}

TEST(DailySeries, ErrorsBucketByDayAndClass) {
  const CampaignWindow w;
  const std::vector<FaultRecord> faults{
      fault({1, 1}, w.start + 10 * kSecondsPerDay + 3600, 1),
      fault({1, 1}, w.start + 10 * kSecondsPerDay + 7200, 2),
      fault({1, 1}, w.start + 11 * kSecondsPerDay + 3600, 1)};
  const auto series = daily_errors(faults, w);
  EXPECT_EQ(series[10][0], 1u);
  EXPECT_EQ(series[10][1], 1u);
  EXPECT_EQ(series[11][0], 1u);
}

TEST(TopNodes, RanksAndSeparatesRest) {
  const CampaignWindow w;
  std::vector<FaultRecord> faults;
  for (int i = 0; i < 50; ++i) faults.push_back(fault({2, 4}, w.start + i * 1000));
  for (int i = 0; i < 20; ++i) faults.push_back(fault({4, 5}, w.start + i * 1000));
  for (int i = 0; i < 10; ++i) faults.push_back(fault({58, 2}, w.start + i * 1000));
  faults.push_back(fault({30, 3}, w.start + 5000));
  const TopNodeSeries top = top_node_series(faults, w);
  ASSERT_EQ(top.nodes.size(), 3u);
  EXPECT_EQ(top.nodes[0], (cluster::NodeId{2, 4}));
  EXPECT_EQ(top.node_totals[0], 50u);
  EXPECT_EQ(top.nodes[2], (cluster::NodeId{58, 2}));
  EXPECT_EQ(top.rest_total, 1u);
}

TEST(TopNodes, FewerNodesThanRequested) {
  const CampaignWindow w;
  const std::vector<FaultRecord> faults{fault({1, 1}, w.start + 100)};
  const TopNodeSeries top = top_node_series(faults, w, 3);
  EXPECT_EQ(top.nodes.size(), 1u);
  EXPECT_EQ(top.rest_total, 0u);
}

TEST(Correlation, WiredThroughDailySeries) {
  telemetry::CampaignArchive archive;
  const CampaignWindow w = archive.window();
  std::vector<FaultRecord> faults;
  // Sessions every day of the whole campaign with identical size; errors on
  // alternating days -> no correlation with the flat scanning series.
  for (int d = 0; d < static_cast<int>(w.duration_days()); ++d) {
    const TimePoint start = w.start + d * kSecondsPerDay + 6 * kSecondsPerHour;
    archive.log({1, 1}).add_start({start, {1, 1}, 3 * kGiB, 30.0});
    archive.log({1, 1}).add_end({start + 10 * kSecondsPerHour, {1, 1}, 30.0});
    if (d % 2 == 0) faults.push_back(fault({1, 1}, start + 3600));
  }
  const PearsonResult r = scan_error_correlation(archive, faults);
  EXPECT_GT(r.n, 300u);
  EXPECT_LT(std::abs(r.r), 0.35);
}

TEST(Headline, ComputesRates) {
  telemetry::CampaignArchive archive;
  const CampaignWindow w = archive.window();
  archive.log({1, 1}).add_start({w.start, {1, 1}, 3 * kGiB, 30.0});
  archive.log({1, 1}).add_end({w.start + 100 * kSecondsPerHour, {1, 1}, 30.0});
  telemetry::ErrorRecord e;
  e.node = {1, 1};
  e.time = w.start + 3600;
  e.expected = 0xFFFFFFFFu;
  e.actual = 0xFFFFFFFEu;
  archive.log({1, 1}).add_error(e);

  const ExtractionResult extraction = extract_faults(archive);
  const HeadlineStats stats = headline_stats(archive, extraction);
  EXPECT_EQ(stats.independent_faults, 1u);
  EXPECT_EQ(stats.monitored_nodes, 1);
  EXPECT_DOUBLE_EQ(stats.monitored_node_hours, 100.0);
  EXPECT_DOUBLE_EQ(stats.node_mtbf_hours, 100.0);
  EXPECT_DOUBLE_EQ(stats.cluster_mtbe_minutes,
                   static_cast<double>(w.duration_seconds()) / 60.0);
}

// Bit-for-bit double equality: the bulk path must run the same
// floating-point arithmetic in the same order as the per-record path.
void expect_same_bits(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << a << " vs " << b;
}

void expect_same_grid(const Grid2D& a, const Grid2D& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) expect_same_bits(a.at(r, c), b.at(r, c));
}

TEST(ScanProfileSink, BulkAndPerRecordDeliveryAreBitIdentical) {
  // Random sessions on 80 nodes: odd lengths that straddle local-day
  // boundaries, varied allocations, some ENDs lost (hard reboots), plus
  // error runs and alloc failures the sink must ignore.
  telemetry::CampaignArchive archive;
  const CampaignWindow w = archive.window();
  std::mt19937_64 gen(42);
  for (int k = 0; k < 80; ++k) {
    const cluster::NodeId node = cluster::node_from_index(
        static_cast<int>(gen() % static_cast<std::uint64_t>(cluster::kStudyNodeSlots)));
    telemetry::NodeLog& log = archive.log(node);
    if (!log.empty()) continue;
    TimePoint t = w.start + static_cast<TimePoint>(gen() % (30 * kSecondsPerDay));
    while (t < w.end - 2 * kSecondsPerDay) {
      const TimePoint len = 600 + static_cast<TimePoint>(gen() % (40 * kSecondsPerHour));
      log.add_start({t, node, (1 + gen() % 3) * kGiB + gen() % 4096, 30.0});
      if (gen() % 7 != 0) log.add_end({t + len, node, 31.0});
      if (gen() % 5 == 0) {
        telemetry::ErrorRecord e;
        e.node = node;
        e.time = t + len / 2;
        log.add_error(e);
        log.add_alloc_fail({t + len + 1, node});
      }
      t += len + 1 + static_cast<TimePoint>(gen() % (10 * kSecondsPerDay));
    }
  }

  ScanProfileSink per_record;
  ScanProfileSink bulk;
  std::string scratch;
  per_record.begin_campaign(w);
  bulk.begin_campaign(w);
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    per_record.begin_node(node);
    telemetry::replay_node_log(archive.log(node), per_record);
    per_record.end_node(node);
    telemetry::EncodedNodeLog enc(node, archive.log(node), scratch,
                                  telemetry::kernels::active_encode_kernels());
    bulk.begin_node(node);
    bulk.on_node_log(enc);
    bulk.end_node(node);
  }
  per_record.end_campaign();
  bulk.end_campaign();

  ASSERT_GT(per_record.monitored_nodes(), 40);
  EXPECT_EQ(bulk.monitored_nodes(), per_record.monitored_nodes());
  expect_same_bits(bulk.total_monitored_hours(), per_record.total_monitored_hours());
  expect_same_bits(bulk.total_terabyte_hours(), per_record.total_terabyte_hours());
  expect_same_grid(bulk.hours_grid(), per_record.hours_grid());
  expect_same_grid(bulk.terabyte_hours_grid(), per_record.terabyte_hours_grid());
  ASSERT_EQ(bulk.daily_terabyte_hours().size(),
            per_record.daily_terabyte_hours().size());
  for (std::size_t d = 0; d < bulk.daily_terabyte_hours().size(); ++d)
    expect_same_bits(bulk.daily_terabyte_hours()[d],
                     per_record.daily_terabyte_hours()[d]);

  // And both match the batch products over the materialized archive.
  expect_same_grid(per_record.hours_grid(), hours_scanned_grid(archive));
  const std::vector<double> batch_daily = daily_terabyte_hours(archive);
  ASSERT_EQ(batch_daily.size(), bulk.daily_terabyte_hours().size());
  for (std::size_t d = 0; d < batch_daily.size(); ++d)
    expect_same_bits(bulk.daily_terabyte_hours()[d], batch_daily[d]);
}

}  // namespace
}  // namespace unp::analysis
