// HammerFaultGenerator: pattern algebra, physical victim adjacency,
// determinism, the pinned stream-derivation contract, and the detector's
// clustering behavior.
#include "faults/hammer/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "dram/mapping/mapping.hpp"
#include "faults/hammer/detect.hpp"
#include "faults/suite.hpp"

namespace unp::faults::hammer {
namespace {

sched::ScanPlan make_plan(TimePoint start, TimePoint end) {
  sched::ScanPlan plan;
  for (TimePoint day = start; day < end; day += kSecondsPerDay) {
    sched::ScanSession s;
    s.window = {day, std::min(day + 12 * kSecondsPerHour, end)};
    s.pattern = scanner::PatternKind::kAlternating;
    s.allocated_bytes = cluster::kScannableBytes;
    s.pass_period_s = 75;
    plan.sessions.push_back(s);
  }
  return plan;
}

std::vector<NodeContext> make_fleet(const sched::ScanPlan& plan,
                                    int nodes = 60) {
  std::vector<NodeContext> fleet;
  for (int i = 0; i < nodes; ++i) {
    NodeContext ctx;
    ctx.node = cluster::node_from_index(i * 8 + 1);
    ctx.plan = &plan;
    ctx.scanned_hours = plan.scanned_hours();
    fleet.push_back(ctx);
  }
  return fleet;
}

const CampaignWindow kWindow;

/// Config tuned so a small fleet produces a solid event population.
HammerFaultGenerator::Config loud_config() {
  HammerFaultGenerator::Config config;
  config.hammered_node_fraction = 0.5;
  config.episodes_per_node_mean = 4.0;
  return config;
}

TEST(Pattern, BuilderLayoutsAreWellFormed) {
  RngStream rng(3);
  const PatternBuilder builder;
  std::set<PatternKind> kinds;
  for (int i = 0; i < 200; ++i) {
    const HammerPattern p = builder.build(rng);
    kinds.insert(p.kind);
    ASSERT_EQ(p.aggressor_offsets.size(), p.frequencies.size());
    ASSERT_FALSE(p.aggressor_offsets.empty());
    // Offsets strictly increasing, every other row.
    for (std::size_t k = 0; k < p.aggressor_offsets.size(); ++k) {
      EXPECT_EQ(p.aggressor_offsets[k], static_cast<std::int64_t>(2 * k));
    }
    // Frequencies normalized to mean 1.
    double total = 0.0;
    for (const double f : p.frequencies) {
      EXPECT_GT(f, 0.0);
      total += f;
    }
    EXPECT_NEAR(total, static_cast<double>(p.frequencies.size()), 1e-9);
    switch (p.kind) {
      case PatternKind::kSingleSided:
        EXPECT_EQ(p.aggressor_offsets.size(), 1u);
        break;
      case PatternKind::kDoubleSided:
        EXPECT_EQ(p.aggressor_offsets.size(), 2u);
        break;
      case PatternKind::kNSided:
        EXPECT_GE(p.aggressor_offsets.size(), 3u);
        break;
    }
  }
  EXPECT_EQ(kinds.size(), 3u);  // all layouts exercised
}

TEST(Pattern, VictimPressuresSandwichAndFlankCorrectly) {
  HammerPattern p;
  p.kind = PatternKind::kDoubleSided;
  p.aggressor_offsets = {0, 2};
  p.frequencies = {1.0, 1.0};
  const auto victims = victim_pressures(p, 0.1);
  // Victims: -2 (d2), -1, +1 (sandwiched), +3, +4 (d2).
  ASSERT_EQ(victims.size(), 5u);
  std::map<std::int64_t, double> by_offset;
  for (const auto& v : victims) by_offset[v.row_offset] = v.pressure;
  EXPECT_NEAR(by_offset.at(-2), 0.1, 1e-12);  // distance 2 from agg 0
  EXPECT_NEAR(by_offset.at(-1), 1.0, 1e-12);  // flank of agg 0
  EXPECT_NEAR(by_offset.at(+1), 2.0, 1e-12);  // sandwiched by both
  EXPECT_NEAR(by_offset.at(+3), 1.0, 1e-12);  // flank of agg 2
  EXPECT_NEAR(by_offset.at(+4), 0.1, 1e-12);  // distance 2 from agg 2
  // Aggressor rows are never victims.
  EXPECT_FALSE(by_offset.contains(0));
  EXPECT_FALSE(by_offset.contains(2));
}

TEST(Hammer, StreamDerivationIsPinned) {
  // The derivation recipe is part of the campaign-output contract: these
  // values changing means every hammer campaign silently changes.  Bump
  // kHammerDerivationVersion if any of this is intentional.
  EXPECT_EQ(kHammerDerivationVersion, 1u);
  EXPECT_EQ(kHammerWorkloadStreamId, 0x4A33u);
  EXPECT_EQ(kHammerThresholdStreamId, 0x7B17u);
  // First draws of the derived streams, pinned against rng refactors.
  RngStream workload(42, kHammerWorkloadStreamId, 17);
  RngStream threshold(42, kHammerThresholdStreamId,
                      mix64(17, (std::uint64_t{3} << 48) | 1234));
  EXPECT_EQ(workload.next_u64(), RngStream(mix64(mix64(42, 0x4A33), 17))
                                     .next_u64());
  EXPECT_EQ(threshold.next_u64(),
            RngStream(mix64(mix64(42, 0x7B17),
                            mix64(17, (std::uint64_t{3} << 48) | 1234)))
                .next_u64());
}

TEST(Hammer, RowThresholdIsAFixedFunctionOfCellCoordinates) {
  const HammerFaultGenerator gen;
  const double t1 = gen.row_threshold(42, 17, 3, 1234);
  EXPECT_EQ(t1, gen.row_threshold(42, 17, 3, 1234));  // repeatable
  EXPECT_NE(t1, gen.row_threshold(43, 17, 3, 1234));  // keyed by seed
  EXPECT_NE(t1, gen.row_threshold(42, 18, 3, 1234));  // ... node
  EXPECT_NE(t1, gen.row_threshold(42, 17, 2, 1234));  // ... bank
  EXPECT_NE(t1, gen.row_threshold(42, 17, 3, 1235));  // ... row
  EXPECT_GT(t1, 0.0);
}

TEST(Hammer, GenerateIsDeterministicAndWellFormed) {
  const sched::ScanPlan plan = make_plan(kWindow.start, kWindow.end);
  const auto fleet = make_fleet(plan);
  const HammerFaultGenerator gen(loud_config());
  std::vector<FaultEvent> a, b;
  gen.generate(fleet, 7, a);
  gen.generate(fleet, 7, b);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].words, b[i].words);
  }
  const std::uint64_t scannable_words = cluster::kScannableBytes / sizeof(Word);
  for (const auto& ev : a) {
    EXPECT_EQ(ev.mechanism, Mechanism::kRowhammer);
    EXPECT_EQ(ev.persistence, Persistence::kTransient);
    ASSERT_EQ(ev.words.size(), 1u);
    EXPECT_LT(ev.words[0].word_index, scannable_words);
    EXPECT_EQ(std::popcount(ev.words[0].corruption.affected_mask), 1);
    // Every event lands inside a scan session.
    bool in_session = false;
    for (const auto& s : plan.sessions) {
      in_session |= ev.time >= s.window.start && ev.time < s.window.end;
    }
    EXPECT_TRUE(in_session);
  }
}

TEST(Hammer, FlipsClusterOnPhysicallyAdjacentRows) {
  const sched::ScanPlan plan = make_plan(kWindow.start, kWindow.end);
  const auto fleet = make_fleet(plan);
  const HammerFaultGenerator gen(loud_config());
  std::vector<FaultEvent> events;
  gen.generate(fleet, 11, events);
  ASSERT_FALSE(events.empty());

  const dram::mapping::DramMapping mapping{
      dram::mapping::make_mapping_config(gen.config().mapping)};
  // Group flips per (node, bank, row): every tripped row carries a burst
  // of distinct words, and each node's rows concentrate in few banks.
  std::map<std::uint64_t, std::set<std::uint64_t>> row_words;
  for (const auto& ev : events) {
    const auto c = mapping.decode(ev.words[0].word_index);
    const std::uint64_t node_index =
        static_cast<std::uint64_t>(cluster::node_index(ev.node));
    row_words[(node_index << 40) | (std::uint64_t{c.bank} << 32) | c.row]
        .insert(ev.words[0].word_index);
  }
  int burst_rows = 0;
  for (const auto& [key, words] : row_words) {
    if (static_cast<int>(words.size()) >= gen.config().flip_words_min / 2) {
      ++burst_rows;
    }
  }
  // The dominant share of tripped rows shows a wide burst of distinct
  // words - the clustering signature the detector keys on.
  EXPECT_GT(burst_rows, static_cast<int>(row_words.size()) / 2);
}

TEST(Hammer, DetectorFlagsBurstRowsAndAbsorbsFollowups) {
  const dram::mapping::DramMapping mapping{
      dram::mapping::make_mapping_config("lpddr3:mb")};
  DetectorConfig config;
  config.min_distinct_words = 3;
  config.window_seconds = 3600;
  HammerRowDetector detector(mapping, config);

  const dram::mapping::DramCoordinate base{2, 100, 0};
  // Two distinct words: below threshold.
  EXPECT_FALSE(detector.observe(1000, mapping.encode({2, 100, 5})));
  EXPECT_FALSE(detector.observe(1100, mapping.encode({2, 100, 9})));
  // Same word again refreshes, still 2 distinct.
  EXPECT_FALSE(detector.observe(1200, mapping.encode({2, 100, 9})));
  // Different row: no interference.
  EXPECT_FALSE(detector.observe(1300, mapping.encode({2, 101, 5})));
  // Third distinct word in-window: trigger.
  EXPECT_TRUE(detector.observe(1400, mapping.encode({2, 100, 77})));
  ASSERT_EQ(detector.detections().size(), 1u);
  EXPECT_EQ(detector.detections()[0].bank, base.bank);
  EXPECT_EQ(detector.detections()[0].row, base.row);
  EXPECT_EQ(detector.detections()[0].trigger_time, 1400);
  // Post-trigger faults on the row are absorbable.
  EXPECT_FALSE(detector.observe(1500, mapping.encode({2, 100, 78})));
  EXPECT_EQ(detector.absorbable_faults(), 1u);
  EXPECT_EQ(detector.detections()[0].distinct_words, 4);

  // A slow drip outside the window never triggers.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(detector.observe(
        10000 + i * 7200,
        mapping.encode({5, 700, static_cast<std::uint64_t>(10 + i)})));
  }
  EXPECT_EQ(detector.detections().size(), 1u);
}

/// Brute-force detector from the header's definition, over the whole
/// stream at once: an observation at time t on an untriggered row triggers
/// it when the row's distinct words observed so far at times >= t - window
/// number at least min_distinct_words; later observations strictly after
/// the trigger time are absorbable; distinct_words counts every distinct
/// word the row saw over the whole stream.
struct OracleResult {
  std::vector<DetectedRow> detections;
  std::uint64_t absorbable = 0;
};

OracleResult oracle_detect(
    const dram::mapping::DramMapping& mapping, const DetectorConfig& config,
    const std::vector<std::pair<TimePoint, std::uint64_t>>& stream) {
  using Key = std::pair<std::uint32_t, std::uint64_t>;  // (bank, row)
  std::vector<Key> keys;
  for (const auto& [time, word] : stream) {
    const auto c = mapping.decode(word);
    keys.emplace_back(c.bank, c.row);
  }
  OracleResult out;
  std::map<Key, std::size_t> triggered;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const TimePoint time = stream[i].first;
    if (const auto it = triggered.find(keys[i]); it != triggered.end()) {
      if (time > out.detections[it->second].trigger_time) ++out.absorbable;
      continue;
    }
    std::set<std::uint64_t> live;
    for (std::size_t j = 0; j <= i; ++j) {
      if (keys[j] == keys[i] &&
          stream[j].first >= time - config.window_seconds) {
        live.insert(stream[j].second);
      }
    }
    if (static_cast<int>(live.size()) < config.min_distinct_words) continue;
    triggered.emplace(keys[i], out.detections.size());
    out.detections.push_back({keys[i].first, keys[i].second, time, 0});
  }
  for (DetectedRow& d : out.detections) {
    std::set<std::uint64_t> words;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (keys[i] == Key{d.bank, d.row}) words.insert(stream[i].second);
    }
    d.distinct_words = static_cast<int>(words.size());
  }
  return out;
}

/// A fixed-seed stream over `rows` rows of `columns` candidate words each,
/// times stepping by whole multiples of `step` (often 0: equal timestamps)
/// so gaps of exactly the window occur.  `near_top` puts every word in the
/// last rows of the last bank, just below total_words().
std::vector<std::pair<TimePoint, std::uint64_t>> random_stream(
    const dram::mapping::DramMapping& mapping, std::uint64_t seed, int length,
    int rows, int columns, std::int64_t step, bool near_top) {
  RngStream rng(seed);
  std::vector<std::pair<TimePoint, std::uint64_t>> stream;
  TimePoint time = 1'000'000;
  for (int i = 0; i < length; ++i) {
    time += step * rng.uniform_int(0, 3);
    // Half the draws hit a hot set of at most 16 rows, so long streams
    // over thousands of rows still trigger some.
    const auto r = rng.uniform_u64(
        static_cast<std::uint64_t>(rng.bernoulli(0.5) ? std::min(rows, 16) : rows));
    dram::mapping::DramCoordinate c;
    if (near_top) {
      c.bank = mapping.banks() - 1 - static_cast<std::uint32_t>(r % 2);
      c.row = mapping.rows() - 1 - r / 2;
      c.column = mapping.columns() - 1 -
                 rng.uniform_u64(static_cast<std::uint64_t>(columns));
    } else {
      c.bank = static_cast<std::uint32_t>(r % mapping.banks());
      c.row = (r * 7919) % mapping.rows();
      c.column = rng.uniform_u64(static_cast<std::uint64_t>(columns));
    }
    stream.emplace_back(time, mapping.encode(c));
  }
  return stream;
}

TEST(Hammer, DetectorMatchesBruteForceOracle) {
  struct Case {
    const char* geometry;
    int length, rows, columns;
    std::int64_t step;
    bool near_top;
    int min_words;
    std::int64_t window;
  };
  const Case cases[] = {
      // Few rows, few words: repeats, refreshes and expiry at exactly
      // window_seconds (step divides the window).
      {"lpddr3:mb", 3000, 40, 6, 600, false, 3, 3600},
      {"ddr4:2ch", 3000, 25, 4, 1200, false, 2, 3600},
      {"ddr3:1ch", 3000, 30, 10, 60, false, 5, 3600},
      {"ddr3:2ch", 2000, 20, 3, 0, false, 3, 0},  // all timestamps equal
      {"ddr4:1ch", 2000, 50, 5, 300, false, 1, 600},
      {"lpddr3:mb", 2000, 50, 5, 300, false, 0, 600},
      // Word indices just below total_words().
      {"lpddr3:mb", 3000, 30, 5, 600, true, 3, 3600},
      {"ddr3:1ch", 3000, 30, 5, 600, true, 2, 1200},
      // Thousands of rows: the row and word tables grow several times.
      {"lpddr3:mb", 12000, 6000, 4, 60, false, 3, 6 * 3600},
  };
  std::uint64_t seed = 101;
  for (const Case& k : cases) {
    SCOPED_TRACE(std::string(k.geometry) + " rows=" + std::to_string(k.rows) +
                 " m=" + std::to_string(k.min_words));
    const dram::mapping::DramMapping mapping{
        dram::mapping::make_mapping_config(k.geometry)};
    const DetectorConfig config{k.min_words, k.window};
    const auto stream = random_stream(mapping, seed++, k.length, k.rows,
                                      k.columns, k.step, k.near_top);
    HammerRowDetector detector(mapping, config);
    std::vector<std::size_t> trigger_at;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (detector.observe(stream[i].first, stream[i].second)) {
        trigger_at.push_back(i);
      }
    }
    const OracleResult expected = oracle_detect(mapping, config, stream);
    EXPECT_EQ(detector.observed_faults(), stream.size());
    EXPECT_EQ(detector.absorbable_faults(), expected.absorbable);
    ASSERT_EQ(detector.detections().size(), expected.detections.size());
    EXPECT_EQ(trigger_at.size(), expected.detections.size());
    EXPECT_GT(expected.detections.size(), 0u);
    for (std::size_t d = 0; d < expected.detections.size(); ++d) {
      const DetectedRow& got = detector.detections()[d];
      const DetectedRow& want = expected.detections[d];
      EXPECT_EQ(got.bank, want.bank) << "detection " << d;
      EXPECT_EQ(got.row, want.row) << "detection " << d;
      EXPECT_EQ(got.trigger_time, want.trigger_time) << "detection " << d;
      EXPECT_EQ(got.distinct_words, want.distinct_words) << "detection " << d;
    }
  }
}

TEST(Hammer, DetectorRejectsWordsOutsideTheMapping) {
  const dram::mapping::DramMapping mapping{
      dram::mapping::make_mapping_config("ddr3:1ch")};
  HammerRowDetector detector(mapping, DetectorConfig{});
  EXPECT_FALSE(detector.observe(0, mapping.total_words() - 1));
  EXPECT_THROW((void)detector.observe(0, mapping.total_words()),
               ContractViolation);
  EXPECT_EQ(detector.observed_faults(), 1u);
}

TEST(Hammer, SuiteDisabledByDefaultAndAdditiveWhenEnabled) {
  const sched::ScanPlan plan = make_plan(kWindow.start, kWindow.end);
  std::vector<NodeContext> fleet = make_fleet(plan);

  FaultModelSuite::Config base_config;
  EXPECT_FALSE(base_config.enable_hammer);
  const auto base = FaultModelSuite(base_config).generate(fleet, 42);
  for (const auto& ev : base) {
    EXPECT_NE(ev.mechanism, Mechanism::kRowhammer);
  }

  FaultModelSuite::Config hammer_config = base_config;
  hammer_config.enable_hammer = true;
  hammer_config.hammer = loud_config();
  const auto with = FaultModelSuite(hammer_config).generate(fleet, 42);
  EXPECT_GT(with.size(), base.size());
  // The time-driven population is unchanged: the hammer events are purely
  // additive and the merged stream stays (time, node)-sorted.
  std::vector<FaultEvent> non_hammer;
  for (const auto& ev : with) {
    if (ev.mechanism != Mechanism::kRowhammer) non_hammer.push_back(ev);
  }
  ASSERT_EQ(non_hammer.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(non_hammer[i].time, base[i].time);
    EXPECT_EQ(non_hammer[i].node, base[i].node);
    EXPECT_EQ(non_hammer[i].words, base[i].words);
  }
  for (std::size_t i = 1; i < with.size(); ++i) {
    EXPECT_LE(with[i - 1].time, with[i].time);
  }
}

}  // namespace
}  // namespace unp::faults::hammer
