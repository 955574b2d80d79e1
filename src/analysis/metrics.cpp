#include "analysis/metrics.hpp"

#include <algorithm>

#include "analysis/sink_state.hpp"
#include "common/require.hpp"

namespace unp::analysis {

const char* bit_class_label(int klass) noexcept {
  switch (klass) {
    case 0: return "1";
    case 1: return "2";
    case 2: return "3";
    case 3: return "4";
    case 4: return "5";
    case 5: return "6+";
  }
  return "?";
}

namespace {

Grid2D node_grid() {
  return Grid2D(static_cast<std::size_t>(cluster::kStudyBlades),
                static_cast<std::size_t>(cluster::kSocsPerBlade));
}

std::size_t series_days(const CampaignWindow& window) {
  return static_cast<std::size_t>(window.duration_days()) + 2;
}

}  // namespace

Grid2D hours_scanned_grid(const telemetry::CampaignArchive& archive) {
  Grid2D grid = node_grid();
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    grid.at(static_cast<std::size_t>(node.blade),
            static_cast<std::size_t>(node.soc)) =
        archive.log(node).monitored_hours();
  }
  return grid;
}

Grid2D terabyte_hours_grid(const telemetry::CampaignArchive& archive) {
  Grid2D grid = node_grid();
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    grid.at(static_cast<std::size_t>(node.blade),
            static_cast<std::size_t>(node.soc)) =
        archive.log(node).terabyte_hours();
  }
  return grid;
}

Grid2D errors_grid(FaultView faults) {
  ErrorsGridAnalyzer analyzer;
  analyzer.begin_faults({});
  for (const auto& f : faults) analyzer.on_fault(f);
  return analyzer.grid();
}

std::uint64_t HourOfDayProfile::total(int hour) const noexcept {
  std::uint64_t sum = 0;
  for (int c = 0; c < kBitClasses; ++c)
    sum += counts[static_cast<std::size_t>(hour)][static_cast<std::size_t>(c)];
  return sum;
}

std::uint64_t HourOfDayProfile::multibit(int hour) const noexcept {
  std::uint64_t sum = 0;
  for (int c = 1; c < kBitClasses; ++c)
    sum += counts[static_cast<std::size_t>(hour)][static_cast<std::size_t>(c)];
  return sum;
}

double HourOfDayProfile::day_night_ratio_multibit() const noexcept {
  double day = 0.0, night = 0.0;
  for (int h = 0; h < 24; ++h) {
    const auto v = static_cast<double>(multibit(h));
    if (h >= 7 && h <= 18) {
      day += v;
    } else {
      night += v;
    }
  }
  // Normalize per hour: the day window spans 12 hours, the night 12.
  return night > 0.0 ? day / night : 0.0;
}

HourOfDayProfile hour_of_day_profile(FaultView faults) {
  HourOfDayAnalyzer analyzer;
  analyzer.begin_faults({});
  for (const auto& f : faults) analyzer.on_fault(f);
  return analyzer.profile();
}

TemperatureProfile::TemperatureProfile() {
  by_class.reserve(kBitClasses);
  for (int c = 0; c < kBitClasses; ++c) {
    by_class.emplace_back(kLoC, kHiC, kBins);
  }
}

TemperatureProfile temperature_profile(FaultView faults) {
  TemperatureAnalyzer analyzer;
  analyzer.begin_faults({});
  for (const auto& f : faults) analyzer.on_fault(f);
  return analyzer.profile();
}

void accumulate_daily_terabyte_hours(const telemetry::NodeLog& log,
                                     const CampaignWindow& window,
                                     std::vector<double>& series) {
  constexpr double kBytesPerTb = 1099511627776.0;
  // Pair STARTs with ENDs using the same conservative rule as
  // NodeLog::monitored_hours, then split each session across local days.
  std::size_t e = 0;
  const auto& starts = log.starts();
  const auto& ends = log.ends();
  for (std::size_t s = 0; s < starts.size(); ++s) {
    while (e < ends.size() && ends[e].time < starts[s].time) ++e;
    const TimePoint next_start = s + 1 < starts.size() ? starts[s + 1].time : 0;
    if (e >= ends.size() ||
        (s + 1 < starts.size() && ends[e].time > next_start)) {
      continue;  // END lost
    }
    const double tb = static_cast<double>(starts[s].allocated_bytes) / kBytesPerTb;
    TimePoint t = starts[s].time;
    const TimePoint session_end = ends[e].time;
    ++e;
    while (t < session_end) {
      const std::int64_t day = window.day_of_campaign(t);
      // End of the local day containing t.
      const TimePoint local_midnight =
          t + (kSecondsPerDay -
               ((t + BarcelonaClock::utc_offset(t)) % kSecondsPerDay));
      const TimePoint chunk_end = std::min(session_end, local_midnight);
      if (day >= 0 && static_cast<std::size_t>(day) < series.size()) {
        series[static_cast<std::size_t>(day)] +=
            tb * static_cast<double>(chunk_end - t) / kSecondsPerHour;
      }
      t = chunk_end;
    }
  }
}

std::vector<double> daily_terabyte_hours(const telemetry::CampaignArchive& archive) {
  const CampaignWindow& window = archive.window();
  std::vector<double> series(series_days(window), 0.0);
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    accumulate_daily_terabyte_hours(archive.log(cluster::node_from_index(i)),
                                    window, series);
  }
  return series;
}

DailyErrorSeries daily_errors(FaultView faults, const CampaignWindow& window) {
  DailyErrorsAnalyzer analyzer;
  analyzer.begin_faults({window});
  for (const auto& f : faults) analyzer.on_fault(f);
  return analyzer.series();
}

TopNodeSeries top_node_series(FaultView faults, const CampaignWindow& window,
                              std::size_t top) {
  TopNodeAnalyzer analyzer(top);
  analyzer.begin_faults({window});
  for (const auto& f : faults) analyzer.on_fault(f);
  analyzer.end_faults();
  return analyzer.series();
}

PearsonResult scan_error_correlation(std::span<const double> daily_tbh,
                                     const DailyErrorSeries& errors) {
  const std::size_t days = std::min(daily_tbh.size(), errors.size());
  std::vector<double> x(days), y(days);
  for (std::size_t d = 0; d < days; ++d) {
    x[d] = daily_tbh[d];
    std::uint64_t total = 0;
    for (int c = 0; c < kBitClasses; ++c)
      total += errors[d][static_cast<std::size_t>(c)];
    y[d] = static_cast<double>(total);
  }
  return pearson(x, y);
}

PearsonResult scan_error_correlation(const telemetry::CampaignArchive& archive,
                                     FaultView faults) {
  return scan_error_correlation(daily_terabyte_hours(archive),
                                daily_errors(faults, archive.window()));
}

HeadlineStats headline_stats(double monitored_node_hours, double terabyte_hours,
                             int monitored_nodes, const CampaignWindow& window,
                             const ExtractionResult& extraction) {
  HeadlineStats stats;
  stats.raw_logs = extraction.total_raw_logs;
  stats.removed_fraction = extraction.removed_fraction();
  stats.independent_faults = extraction.faults.size();
  stats.monitored_node_hours = monitored_node_hours;
  stats.terabyte_hours = terabyte_hours;
  stats.monitored_nodes = monitored_nodes;
  if (stats.independent_faults > 0) {
    stats.node_mtbf_hours = stats.monitored_node_hours /
                            static_cast<double>(stats.independent_faults);
    stats.cluster_mtbe_minutes =
        static_cast<double>(window.duration_seconds()) / 60.0 /
        static_cast<double>(stats.independent_faults);
  }
  return stats;
}

HeadlineStats headline_stats(const telemetry::CampaignArchive& archive,
                             const ExtractionResult& extraction) {
  int monitored_nodes = 0;
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    if (archive.log(cluster::node_from_index(i)).monitored_hours() > 0.0) {
      ++monitored_nodes;
    }
  }
  return headline_stats(archive.total_monitored_hours(),
                        archive.total_terabyte_hours(), monitored_nodes,
                        archive.window(), extraction);
}

// --- Streaming analyzers --------------------------------------------------

ScanProfileSink::ScanProfileSink() : hours_(node_grid()), tbh_(node_grid()) {}

void ScanProfileSink::begin_campaign(const CampaignWindow& window) {
  window_ = window;
  hours_ = node_grid();
  tbh_ = node_grid();
  daily_tbh_.assign(series_days(window), 0.0);
  total_hours_ = 0.0;
  total_tbh_ = 0.0;
  monitored_nodes_ = 0;
  pending_ = telemetry::NodeLog{};
  bulk_ = false;
}

void ScanProfileSink::begin_node(cluster::NodeId /*node*/) {
  pending_.clear();
  bulk_ = false;
}

void ScanProfileSink::on_start(const telemetry::StartRecord& r) {
  pending_.add_start(r);
}

void ScanProfileSink::on_end(const telemetry::EndRecord& r) {
  pending_.add_end(r);
}

void ScanProfileSink::on_node_log(telemetry::EncodedNodeLog& log) {
  // A bulk frame replaces the per-record collection: no records may have
  // been pushed into this frame already, and none may follow.
  UNP_REQUIRE(pending_.empty() && !bulk_);
  add_node(log.node(), log.log());
  bulk_ = true;
}

void ScanProfileSink::end_node(cluster::NodeId node) {
  if (bulk_) {  // already added by on_node_log
    bulk_ = false;
    return;
  }
  add_node(node, pending_);
  pending_.clear();
}

void ScanProfileSink::add_node(cluster::NodeId node,
                               const telemetry::NodeLog& log) {
  const double hours = log.monitored_hours();
  const double tbh = log.terabyte_hours();
  hours_.at(static_cast<std::size_t>(node.blade),
            static_cast<std::size_t>(node.soc)) = hours;
  tbh_.at(static_cast<std::size_t>(node.blade),
          static_cast<std::size_t>(node.soc)) = tbh;
  // Nodes stream in ascending index order, so these running sums add in the
  // same order as the batch loops over archive slots (absent slots add an
  // exact 0.0 there), keeping the doubles bit-identical.
  total_hours_ += hours;
  total_tbh_ += tbh;
  if (hours > 0.0) ++monitored_nodes_;
  if (daily_tbh_.empty()) daily_tbh_.assign(series_days(window_), 0.0);
  accumulate_daily_terabyte_hours(log, window_, daily_tbh_);
}

ErrorsGridAnalyzer::ErrorsGridAnalyzer() : grid_(node_grid()) {}

void ErrorsGridAnalyzer::begin_faults(const FaultStreamContext& /*ctx*/) {
  grid_ = node_grid();
}

void ErrorsGridAnalyzer::on_fault(const FaultRecord& fault) {
  grid_.at(static_cast<std::size_t>(fault.node.blade),
           static_cast<std::size_t>(fault.node.soc)) += 1.0;
}

std::string ErrorsGridAnalyzer::serialize_state() const {
  // Cells are whole counts held as doubles, so the cell-wise sum below is
  // exact and shard order cannot perturb it.
  state::Writer w('G');
  for (std::size_t r = 0; r < grid_.rows(); ++r)
    for (std::size_t c = 0; c < grid_.cols(); ++c) w.put_f64(grid_.at(r, c));
  return std::move(w).take();
}

void ErrorsGridAnalyzer::merge_state(const std::string& blob) {
  state::Reader r(blob, 'G', "ErrorsGridAnalyzer");
  for (std::size_t row = 0; row < grid_.rows(); ++row)
    for (std::size_t col = 0; col < grid_.cols(); ++col)
      grid_.at(row, col) += r.get_f64();
  r.finish();
}

void HourOfDayAnalyzer::begin_faults(const FaultStreamContext& /*ctx*/) {
  profile_ = HourOfDayProfile{};
}

void HourOfDayAnalyzer::on_fault(const FaultRecord& fault) {
  const auto hour =
      static_cast<std::size_t>(BarcelonaClock::local_hour(fault.first_seen));
  const auto klass = static_cast<std::size_t>(bit_class(fault.flipped_bits()));
  ++profile_.counts[hour][klass];
}

std::string HourOfDayAnalyzer::serialize_state() const {
  state::Writer w('H');
  for (const auto& hour : profile_.counts)
    for (const auto count : hour) w.put_u64(count);
  return std::move(w).take();
}

void HourOfDayAnalyzer::merge_state(const std::string& blob) {
  state::Reader r(blob, 'H', "HourOfDayAnalyzer");
  for (auto& hour : profile_.counts)
    for (auto& count : hour) count += r.get_u64();
  r.finish();
}

void TemperatureAnalyzer::begin_faults(const FaultStreamContext& /*ctx*/) {
  profile_ = TemperatureProfile{};
}

void TemperatureAnalyzer::on_fault(const FaultRecord& fault) {
  if (!telemetry::has_temperature(fault.temperature_c)) {
    ++profile_.without_reading;
    return;
  }
  profile_.by_class[static_cast<std::size_t>(bit_class(fault.flipped_bits()))]
      .add(fault.temperature_c);
}

std::string TemperatureAnalyzer::serialize_state() const {
  state::Writer w('T');
  for (const auto& hist : profile_.by_class) {
    for (std::size_t b = 0; b < hist.bins(); ++b) w.put_u64(hist.count(b));
    w.put_u64(hist.underflow());
    w.put_u64(hist.overflow());
  }
  w.put_u64(profile_.without_reading);
  return std::move(w).take();
}

void TemperatureAnalyzer::merge_state(const std::string& blob) {
  state::Reader r(blob, 'T', "TemperatureAnalyzer");
  for (auto& hist : profile_.by_class) {
    // Re-add through the bin centers: weight-preserving and exact, without
    // widening Histogram1D's interface.
    for (std::size_t b = 0; b < hist.bins(); ++b)
      hist.add(hist.bin_center(b), r.get_u64());
    hist.add(TemperatureProfile::kLoC - 1.0, r.get_u64());  // underflow
    hist.add(TemperatureProfile::kHiC, r.get_u64());        // overflow
  }
  profile_.without_reading += r.get_u64();
  r.finish();
}

void DailyErrorsAnalyzer::begin_faults(const FaultStreamContext& ctx) {
  window_ = ctx.window;
  series_.assign(series_days(window_),
                 std::array<std::uint64_t, kBitClasses>{});
}

void DailyErrorsAnalyzer::on_fault(const FaultRecord& fault) {
  const std::int64_t day = window_.day_of_campaign(fault.first_seen);
  if (day < 0 || static_cast<std::size_t>(day) >= series_.size()) return;
  ++series_[static_cast<std::size_t>(day)]
          [static_cast<std::size_t>(bit_class(fault.flipped_bits()))];
}

std::string DailyErrorsAnalyzer::serialize_state() const {
  state::Writer w('D');
  w.put_u64(series_.size());
  for (const auto& day : series_)
    for (const auto count : day) w.put_u64(count);
  return std::move(w).take();
}

void DailyErrorsAnalyzer::merge_state(const std::string& blob) {
  state::Reader r(blob, 'D', "DailyErrorsAnalyzer");
  const std::uint64_t days = r.get_u64();
  UNP_REQUIRE(days == series_.size());  // same campaign window on both sides
  for (auto& day : series_)
    for (auto& count : day) count += r.get_u64();
  r.finish();
}

void TopNodeAnalyzer::begin_faults(const FaultStreamContext& ctx) {
  window_ = ctx.window;
  days_ = series_days(window_);
  totals_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots), 0);
  counts_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots) * days_, 0);
  series_ = TopNodeSeries{};
}

void TopNodeAnalyzer::on_fault(const FaultRecord& fault) {
  const auto node = static_cast<std::size_t>(cluster::node_index(fault.node));
  ++totals_[node];
  const std::int64_t day = window_.day_of_campaign(fault.first_seen);
  if (day < 0 || static_cast<std::size_t>(day) >= days_) return;
  ++counts_[node * days_ + static_cast<std::size_t>(day)];
}

std::string TopNodeAnalyzer::serialize_state() const {
  state::Writer w('N');
  w.put_u64(days_);
  for (const auto total : totals_) w.put_u64(total);
  for (const auto count : counts_) w.put_u64(count);
  return std::move(w).take();
}

void TopNodeAnalyzer::merge_state(const std::string& blob) {
  state::Reader r(blob, 'N', "TopNodeAnalyzer");
  const std::uint64_t days = r.get_u64();
  UNP_REQUIRE(days == days_);  // same campaign window on both sides
  for (auto& total : totals_) total += r.get_u64();
  for (auto& count : counts_) count += r.get_u64();
  r.finish();
}

void TopNodeAnalyzer::end_faults() {
  std::vector<int> order(static_cast<std::size_t>(cluster::kStudyNodeSlots));
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i)
    order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return totals_[static_cast<std::size_t>(a)] >
           totals_[static_cast<std::size_t>(b)];
  });

  series_ = TopNodeSeries{};
  for (std::size_t k = 0; k < top_ && k < order.size(); ++k) {
    const int idx = order[k];
    if (totals_[static_cast<std::size_t>(idx)] == 0) break;
    series_.nodes.push_back(cluster::node_from_index(idx));
    series_.node_totals.push_back(totals_[static_cast<std::size_t>(idx)]);
    auto& per_day = series_.per_day.emplace_back(days_, 0);
    for (std::size_t d = 0; d < days_; ++d)
      per_day[d] = counts_[static_cast<std::size_t>(idx) * days_ + d];
  }

  series_.rest_per_day.assign(days_, 0);
  for (std::size_t node = 0;
       node < static_cast<std::size_t>(cluster::kStudyNodeSlots); ++node) {
    bool in_top = false;
    for (const auto& id : series_.nodes) {
      if (static_cast<std::size_t>(cluster::node_index(id)) == node) {
        in_top = true;
        break;
      }
    }
    if (in_top) continue;
    for (std::size_t d = 0; d < days_; ++d)
      series_.rest_per_day[d] += counts_[node * days_ + d];
  }
  for (const auto v : series_.rest_per_day) series_.rest_total += v;
}

}  // namespace unp::analysis
