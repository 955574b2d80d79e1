// CampaignEmitOptions matrix: the record stream a campaign emits must be
// byte-identical (UNPS) and record-identical (archive) across the optimized
// bulk/arena path, the legacy per-record/no-reuse path, every thread count,
// and every encode kernel set.  This is the contract that lets the perf
// bench compare those configurations as pure speed, not behavior.
#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/simd_dispatch.hpp"
#include "sim/shard.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/kernels/kernels.hpp"

namespace unp::sim {
namespace {

CampaignConfig short_config(std::uint64_t seed = 5) {
  CampaignConfig config;
  config.seed = seed;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 9, 8, 0, 0, 0});
  return config;
}

std::string stream_bytes(const CampaignEmitOptions& emit, std::size_t threads) {
  std::ostringstream os(std::ios::binary);
  telemetry::ArchiveWriter writer(os, emit.encode);
  std::vector<telemetry::RecordSink*> sinks{&writer};
  run_campaign_streaming(short_config(), sinks, threads, emit);
  return os.str();
}

TEST(CampaignEmit, StreamBytesIdenticalAcrossEmitMatrix) {
  // Baseline: legacy per-record replay, no buffer reuse, scalar kernels, one
  // thread — the configuration the throughput bench measures as "before".
  CampaignEmitOptions legacy;
  legacy.reuse_buffers = false;
  legacy.bulk_node_logs = false;
  legacy.encode =
      &telemetry::kernels::encode_kernels_for(simd::Isa::kScalar);
  const std::string expect = stream_bytes(legacy, 1);
  ASSERT_GT(expect.size(), 1u << 12);

  for (const simd::Isa isa : simd::supported_isas()) {
    for (const bool reuse : {true, false}) {
      for (const bool bulk : {true, false}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          CampaignEmitOptions emit;
          emit.reuse_buffers = reuse;
          emit.bulk_node_logs = bulk;
          emit.encode = &telemetry::kernels::encode_kernels_for(isa);
          EXPECT_EQ(stream_bytes(emit, threads), expect)
              << simd::to_string(isa) << " reuse=" << reuse << " bulk=" << bulk
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(CampaignEmit, ArchiveContentsIdenticalAcrossBulkAndReplay) {
  // CampaignArchive takes the record-routing path under bulk emission (it
  // never wants encoded bytes); its contents must match per-record replay.
  auto materialize = [](const CampaignEmitOptions& emit, std::size_t threads) {
    telemetry::CampaignArchive archive;
    std::vector<telemetry::RecordSink*> sinks{&archive};
    run_campaign_streaming(short_config(), sinks, threads, emit);
    return archive;
  };
  CampaignEmitOptions legacy;
  legacy.reuse_buffers = false;
  legacy.bulk_node_logs = false;
  const telemetry::CampaignArchive expect = materialize(legacy, 1);
  ASSERT_GT(expect.total_raw_errors(), 0u);

  const telemetry::CampaignArchive bulk = materialize({}, 4);
  EXPECT_EQ(bulk.total_raw_errors(), expect.total_raw_errors());
  EXPECT_DOUBLE_EQ(bulk.total_monitored_hours(), expect.total_monitored_hours());
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    ASSERT_EQ(bulk.log(node).starts(), expect.log(node).starts()) << i;
    ASSERT_EQ(bulk.log(node).ends(), expect.log(node).ends()) << i;
    ASSERT_EQ(bulk.log(node).alloc_fails(), expect.log(node).alloc_fails()) << i;
    ASSERT_EQ(bulk.log(node).error_runs(), expect.log(node).error_runs()) << i;
  }
}

TEST(CampaignEmit, MixedSinksShareOneEncodedBody) {
  // A byte sink (ArchiveWriter) and a record sink (CampaignArchive) fed from
  // the same streaming run: the writer's stream must equal a writer-only run
  // and the archive must equal an archive-only run — one encode per node
  // serves both.
  CampaignEmitOptions emit;  // optimized defaults
  std::ostringstream solo_os(std::ios::binary);
  {
    telemetry::ArchiveWriter writer(solo_os);
    std::vector<telemetry::RecordSink*> sinks{&writer};
    run_campaign_streaming(short_config(), sinks, 2, emit);
  }

  std::ostringstream os(std::ios::binary);
  telemetry::ArchiveWriter writer(os);
  telemetry::CampaignArchive archive;
  std::vector<telemetry::RecordSink*> sinks{&writer, &archive};
  run_campaign_streaming(short_config(), sinks, 2, emit);

  EXPECT_EQ(os.str(), solo_os.str());

  telemetry::CampaignArchive solo_archive;
  std::vector<telemetry::RecordSink*> archive_sinks{&solo_archive};
  run_campaign_streaming(short_config(), archive_sinks, 1, emit);
  EXPECT_EQ(archive.total_raw_errors(), solo_archive.total_raw_errors());
  EXPECT_DOUBLE_EQ(archive.total_terabyte_hours(),
                   solo_archive.total_terabyte_hours());
}

// Heavy-first scheduling: a window before the pathological node's removal
// (2015-06-20), so its stuck words are logged every pass and it is the one
// node heavy enough to run as its own pool task.  Wherever it sits in the
// monitored list (first, last or its default slot), and whether or not a
// shard owns it, the stream must equal the 1-thread stream byte for byte.
CampaignConfig pathological_config(const cluster::NodeId& node) {
  CampaignConfig config = short_config();
  config.window.start = from_civil_utc({2015, 4, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 4, 8, 0, 0, 0});
  config.faults.pathological.node = node;
  // Maintenance gaps (up to 5 days each) can blank a one-week window for a
  // node; without them every placement is scanned.
  config.availability.maintenance_gaps_mean = 0.0;
  return config;
}

std::string shard_stream_bytes(const CampaignConfig& config,
                               const ShardSpec& spec, std::size_t threads) {
  std::ostringstream os(std::ios::binary);
  telemetry::ArchiveWriter writer(os);
  (void)run_campaign_shard(config, spec, {&writer}, threads);
  return os.str();
}

TEST(CampaignEmit, HeavyFirstStreamIdenticalWherePathologicalNodeSits) {
  const cluster::Topology topology = campaign_topology(short_config());
  const std::vector<cluster::NodeId>& monitored = topology.monitored_nodes();
  const cluster::NodeId default_node = CampaignConfig{}.faults.pathological.node;
  for (const cluster::NodeId node :
       {monitored.front(), monitored.back(), default_node}) {
    SCOPED_TRACE(cluster::node_name(node));
    const CampaignConfig config = pathological_config(node);
    const auto position = static_cast<std::size_t>(
        std::find(monitored.begin(), monitored.end(), node) - monitored.begin());
    ASSERT_LT(position, monitored.size());

    // The estimate singles the node out: above total / 2, so it is heavy
    // at every pool size.
    const OpenLoopFleet fleet = build_open_loop_fleet(config, nullptr);
    std::uint64_t total = 0;
    for (std::size_t j = 0; j < monitored.size(); ++j)
      total += node_cost_estimate(fleet, j);
    ASSERT_GT(node_cost_estimate(fleet, position) * 2, total);

    const int owner = static_cast<int>(position % 4);
    for (const ShardSpec spec :
         {ShardSpec{}, ShardSpec{4, owner}, ShardSpec{4, (owner + 1) % 4}}) {
      SCOPED_TRACE(testing::Message() << "shard " << spec.index << "/"
                                      << spec.count);
      const std::string expect = shard_stream_bytes(config, spec, 1);
      ASSERT_GT(expect.size(), 1u << 12);
      for (const std::size_t threads :
           {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        // EXPECT_TRUE, not EXPECT_EQ: a mismatch must not print megabytes.
        EXPECT_TRUE(shard_stream_bytes(config, spec, threads) == expect)
            << "threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace unp::sim
