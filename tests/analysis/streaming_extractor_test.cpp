// StreamingExtractor must be bit-identical to the batch extract_faults -
// the property that licenses running analyses without a resident archive.
#include "analysis/streaming_extractor.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/extraction.hpp"
#include "sim/campaign.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/kernels/kernels.hpp"
#include "telemetry/sink.hpp"

namespace unp::analysis {
namespace {

void stream_archive(const telemetry::CampaignArchive& archive,
                    telemetry::RecordSink& sink) {
  sink.begin_campaign(archive.window());
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    sink.begin_node(node);
    telemetry::replay_node_log(archive.log(node), sink);
    sink.end_node(node);
  }
  sink.end_campaign();
}

// Same framing, but each node's log arrives as one bulk on_node_log call,
// the way the campaign driver and ArchiveReader::drain deliver it.
void stream_archive_bulk(const telemetry::CampaignArchive& archive,
                         telemetry::RecordSink& sink) {
  std::string scratch;
  sink.begin_campaign(archive.window());
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    telemetry::EncodedNodeLog enc(node, archive.log(node), scratch,
                                  telemetry::kernels::active_encode_kernels());
    sink.begin_node(node);
    sink.on_node_log(enc);
    sink.end_node(node);
  }
  sink.end_campaign();
}

void expect_identical(const ExtractionResult& streamed,
                      const ExtractionResult& batch) {
  EXPECT_EQ(streamed.total_raw_logs, batch.total_raw_logs);
  EXPECT_EQ(streamed.removed_raw_logs, batch.removed_raw_logs);
  ASSERT_EQ(streamed.removed_nodes.size(), batch.removed_nodes.size());
  for (std::size_t i = 0; i < batch.removed_nodes.size(); ++i) {
    EXPECT_EQ(streamed.removed_nodes[i], batch.removed_nodes[i]);
  }
  ASSERT_EQ(streamed.faults.size(), batch.faults.size());
  for (std::size_t i = 0; i < batch.faults.size(); ++i) {
    ASSERT_EQ(streamed.faults[i], batch.faults[i]) << "fault " << i;
  }
}

// The acceptance property: bit-identical output on the full seed-42
// default campaign, pathological node filter included.
TEST(StreamingExtractor, BitIdenticalToBatchOnDefaultCampaign) {
  const sim::CampaignResult& campaign = sim::default_campaign();
  const ExtractionResult batch = extract_faults(campaign.archive);

  StreamingExtractor extractor;
  stream_archive(campaign.archive, extractor);
  const ExtractionResult streamed = extractor.finish();

  EXPECT_FALSE(batch.removed_nodes.empty());  // the filter actually fired
  EXPECT_GT(batch.faults.size(), 10000u);
  expect_identical(streamed, batch);
}

// Same property fed directly from the simulator's sink emission (no
// archive replay in between), alongside an archive sink, on a short
// campaign with a non-default extraction config.
TEST(StreamingExtractor, MatchesBatchWhenFedByCampaignStream) {
  sim::CampaignConfig config;
  config.seed = 9;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 9, 21, 0, 0, 0});

  ExtractionConfig extraction_config;
  extraction_config.merge_window_s = 120;

  telemetry::CampaignArchive archive;
  StreamingExtractor extractor(extraction_config);
  (void)sim::run_campaign_streaming(config, {&archive, &extractor}, 2);

  expect_identical(extractor.finish(), extract_faults(archive, extraction_config));
}

// Bulk delivery, per-record delivery and the batch path agree on the full
// seed-42 campaign, whose pathological node the bulk and per-record paths
// both defer and the filter then drops uncollapsed.
TEST(StreamingExtractor, BulkPerRecordAndBatchAgreeOnDefaultCampaign) {
  const sim::CampaignResult& campaign = sim::default_campaign();
  const ExtractionResult batch = extract_faults(campaign.archive);
  ASSERT_FALSE(batch.removed_nodes.empty());

  StreamingExtractor per_record;
  stream_archive(campaign.archive, per_record);
  StreamingExtractor bulk;
  stream_archive_bulk(campaign.archive, bulk);

  // Only the dropped node's runs are still held when the stream ends.
  std::size_t removed_runs = 0;
  for (const cluster::NodeId node : batch.removed_nodes)
    removed_runs += campaign.archive.log(node).error_runs().size();
  EXPECT_EQ(per_record.pending_runs(), removed_runs);
  EXPECT_EQ(bulk.pending_runs(), removed_runs);
  EXPECT_EQ(bulk.sessions_seen(), per_record.sessions_seen());
  EXPECT_EQ(bulk.raw_errors_seen(), per_record.raw_errors_seen());

  expect_identical(per_record.finish(), batch);
  expect_identical(bulk.finish(), batch);
  EXPECT_EQ(bulk.pending_runs(), 0u);
}

// A synthetic stream with three error nodes under pathological_min_raw =
// 50: `big` (60 raw) reaches the threshold but holds under half of all raw
// lines, so the filter keeps it; `loud` (100 raw) is dropped; `small` (6
// raw) is neither.  Runs tie on time across addresses and repeat addresses
// beyond the merge window, so collapse order matters.
struct SyntheticCampaign {
  telemetry::CampaignArchive archive;
  ExtractionConfig config;
  cluster::NodeId big{3, 2};
  cluster::NodeId loud{10, 7};
  cluster::NodeId small{40, 1};
};

SyntheticCampaign synthetic_campaign() {
  SyntheticCampaign c;
  c.config.pathological_min_raw = 50;
  c.config.pathological_raw_fraction = 0.5;
  c.config.merge_window_s = 300;
  const TimePoint t0 = c.archive.window().start + 86400;
  const auto add_runs = [&](cluster::NodeId node, int addresses,
                            std::uint64_t count, int episodes) {
    telemetry::NodeLog& log = c.archive.log(node);
    log.add_start({t0 - 60, node, 1ULL << 30, 30.0});
    for (int e = 0; e < episodes; ++e) {
      for (int a = 0; a < addresses; ++a) {
        telemetry::ErrorRun run;
        run.first.time = t0 + e * 10000;  // ties across addresses
        run.first.node = node;
        run.first.virtual_address = static_cast<std::uint64_t>(4 * (7 - a));
        run.first.expected = 0xFFFFFFFFu;
        run.first.actual = 0xFFFFFFFFu ^ (1u << (a + e));
        run.first.temperature_c = 30.0 + e;
        run.period_s = count > 1 ? 60 : 0;
        run.count = count;
        log.add_error_run(run);
      }
    }
    log.add_end({t0 + 40000, node, 30.0});
  };
  add_runs(c.big, 5, 4, 3);     // 60 raw, 15 runs
  add_runs(c.loud, 5, 10, 2);   // 100 raw, 10 runs
  add_runs(c.small, 2, 1, 3);   // 6 raw, 6 runs
  return c;
}

TEST(StreamingExtractor, KeptLargeNodeIsDeferredThenCollapsedInFinish) {
  const SyntheticCampaign c = synthetic_campaign();
  const ExtractionResult batch = extract_faults(c.archive, c.config);
  ASSERT_EQ(batch.removed_nodes, std::vector<cluster::NodeId>{c.loud});
  ASSERT_GT(batch.faults.size(), 0u);

  for (const bool bulk : {false, true}) {
    SCOPED_TRACE(bulk ? "bulk" : "per-record");
    StreamingExtractor extractor(c.config);
    std::string scratch;
    extractor.begin_campaign(c.archive.window());
    std::size_t deferred = 0;
    for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
      const cluster::NodeId node = cluster::node_from_index(i);
      const telemetry::NodeLog& log = c.archive.log(node);
      extractor.begin_node(node);
      if (bulk) {
        telemetry::EncodedNodeLog enc(node, log, scratch,
                                      telemetry::kernels::active_encode_kernels());
        extractor.on_node_log(enc);
      } else {
        telemetry::replay_node_log(log, extractor);
      }
      extractor.end_node(node);
      // Nodes at or over the threshold stay uncollapsed; the rest collapse.
      if (node == c.big || node == c.loud) deferred += log.error_runs().size();
      EXPECT_EQ(extractor.pending_runs(), deferred) << cluster::node_name(node);
    }
    extractor.end_campaign();
    EXPECT_EQ(deferred, 25u);

    const ExtractionResult streamed = extractor.finish();
    EXPECT_EQ(extractor.pending_runs(), 0u);
    expect_identical(streamed, batch);
  }
}

TEST(StreamingExtractor, ObserverStillFiresAtEndNodeForEveryNode) {
  const SyntheticCampaign c = synthetic_campaign();
  for (const bool bulk : {false, true}) {
    SCOPED_TRACE(bulk ? "bulk" : "per-record");
    StreamingExtractor extractor(c.config);
    std::vector<std::pair<cluster::NodeId, std::vector<FaultRecord>>> seen;
    extractor.set_node_observer(
        [&](cluster::NodeId node, std::span<const FaultRecord> faults) {
          seen.emplace_back(node,
                            std::vector<FaultRecord>(faults.begin(), faults.end()));
        });
    std::string scratch;
    extractor.begin_campaign(c.archive.window());
    for (const cluster::NodeId node : {c.big, c.loud, c.small}) {
      const telemetry::NodeLog& log = c.archive.log(node);
      extractor.begin_node(node);
      if (bulk) {
        telemetry::EncodedNodeLog enc(node, log, scratch,
                                      telemetry::kernels::active_encode_kernels());
        extractor.on_node_log(enc);
      } else {
        telemetry::replay_node_log(log, extractor);
      }
      // Nothing fires before the frame closes...
      EXPECT_TRUE(seen.empty() || !(seen.back().first == node));
      extractor.end_node(node);
      // ...and at end_node the node fires with its collapsed faults, the
      // large and the loud node included.
      ASSERT_FALSE(seen.empty());
      EXPECT_EQ(seen.back().first, node);
      EXPECT_EQ(seen.back().second,
                collapse_node_log(node, log, c.config.merge_window_s));
      EXPECT_EQ(extractor.pending_runs(), 0u);
    }
    extractor.end_campaign();
    EXPECT_EQ(seen.size(), 3u);
    expect_identical(extractor.finish(), extract_faults(c.archive, c.config));
    EXPECT_EQ(seen.size(), 3u);  // finish() fires nothing more
  }
}

TEST(StreamingExtractor, CountsSessionsAndRawErrors) {
  const sim::CampaignResult& campaign = sim::default_campaign();
  StreamingExtractor extractor;
  stream_archive(campaign.archive, extractor);
  EXPECT_EQ(extractor.raw_errors_seen(), campaign.archive.total_raw_errors());
  std::uint64_t starts = 0;
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    starts += campaign.archive.log(cluster::node_from_index(i)).starts().size();
  }
  EXPECT_EQ(extractor.sessions_seen(), starts);
}

TEST(StreamingExtractor, EmptyStreamYieldsEmptyResult) {
  StreamingExtractor extractor;
  const ExtractionResult result = extractor.finish();
  EXPECT_TRUE(result.faults.empty());
  EXPECT_TRUE(result.removed_nodes.empty());
  EXPECT_EQ(result.total_raw_logs, 0u);
}

// --- Warm replay: the extractor fed by ArchiveReader::drain ----------------

/// `archive` spilled as a UNPS stream.
std::string spill(const telemetry::CampaignArchive& archive) {
  std::ostringstream os(std::ios::binary);
  telemetry::ArchiveWriter writer(os);
  stream_archive_bulk(archive, writer);
  return os.str();
}

/// Forwards to the extractor and notes, per node, whether the replayed
/// frame's error runs existed once the extractor was done with it.
class RunsBuiltProbe final : public telemetry::RecordSink {
 public:
  explicit RunsBuiltProbe(StreamingExtractor& inner) : inner_(inner) {}
  void begin_campaign(const CampaignWindow& w) override { inner_.begin_campaign(w); }
  void begin_node(cluster::NodeId node) override { inner_.begin_node(node); }
  void end_node(cluster::NodeId node) override { inner_.end_node(node); }
  void end_campaign() override { inner_.end_campaign(); }
  void on_start(const telemetry::StartRecord& r) override { inner_.on_start(r); }
  void on_end(const telemetry::EndRecord& r) override { inner_.on_end(r); }
  void on_alloc_fail(const telemetry::AllocFailRecord& r) override {
    inner_.on_alloc_fail(r);
  }
  void on_error_run(const telemetry::ErrorRun& r) override {
    inner_.on_error_run(r);
  }
  void on_node_log(telemetry::EncodedNodeLog& enc) override {
    inner_.on_node_log(enc);
    built[cluster::node_index(enc.node())] = enc.runs_built();
  }
  std::map<int, bool> built;

 private:
  StreamingExtractor& inner_;
};

TEST(StreamingExtractor, WarmReplayNeverBuildsDeferredNodesRuns) {
  const SyntheticCampaign c = synthetic_campaign();
  const ExtractionResult batch = extract_faults(c.archive, c.config);
  ASSERT_EQ(batch.removed_nodes, std::vector<cluster::NodeId>{c.loud});
  const std::string bytes = spill(c.archive);
  StreamingExtractor extractor(c.config);
  RunsBuiltProbe probe(extractor);
  std::istringstream is(bytes, std::ios::binary);
  telemetry::ArchiveReader(is).drain(probe);
  // Both nodes at or over pathological_min_raw are deferred as their
  // shared body: the dropped one is never built, the kept one is decoded
  // by finish() only.  The small node collapses in place from its runs.
  EXPECT_FALSE(probe.built.at(cluster::node_index(c.loud)));
  EXPECT_FALSE(probe.built.at(cluster::node_index(c.big)));
  EXPECT_TRUE(probe.built.at(cluster::node_index(c.small)));
  EXPECT_EQ(extractor.pending_runs(), 25u);
  expect_identical(extractor.finish(), batch);
}

// The same on the seed-42 campaign: node 21-7, 2.27M runs that the filter
// drops, is replayed without its runs ever being
// built, and the result is the batch extraction's.
TEST(StreamingExtractor, WarmReplayOfDefaultCampaignSkipsDroppedNodesRuns) {
  const sim::CampaignResult& campaign = sim::default_campaign();
  const ExtractionResult batch = extract_faults(campaign.archive);
  ASSERT_EQ(batch.removed_nodes.size(), 1u);
  const int dropped = cluster::node_index(batch.removed_nodes.front());
  const std::string bytes = spill(campaign.archive);
  StreamingExtractor extractor;
  RunsBuiltProbe probe(extractor);
  std::istringstream is(bytes, std::ios::binary);
  telemetry::ArchiveReader(is).drain(probe);
  EXPECT_FALSE(probe.built.at(dropped));
  EXPECT_EQ(extractor.pending_runs(),
            campaign.archive.log(batch.removed_nodes.front()).error_runs().size());
  expect_identical(extractor.finish(), batch);
}

}  // namespace
}  // namespace unp::analysis
