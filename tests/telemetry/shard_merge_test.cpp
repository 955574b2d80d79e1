// Edge cases of the streaming shard merge (telemetry/shard_merge): header
// round trips, empty and single-record shards, partition validation,
// truncation diagnostics carrying the failing shard id and byte offset, and
// cursor-based resumption.
#include "telemetry/shard_merge.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/archive_io.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::telemetry {
namespace {

constexpr TimePoint kStart = 1'440'000'000;
constexpr TimePoint kEnd = kStart + 100'000;
constexpr CampaignWindow kWindow{kStart, kEnd};
constexpr std::uint64_t kFingerprint = 0xfeedbeef;

ErrorRun run_for_node(int node_index) {
  ErrorRun run;
  run.first.time = kStart + 10 + node_index;
  run.first.node = cluster::node_from_index(node_index);
  run.first.virtual_address = 0x1000u + static_cast<std::uint64_t>(node_index);
  run.first.expected = 0;
  run.first.actual = 1;
  return run;
}

/// UNPS stream holding one single-record frame per listed node.
std::string stream_bytes(const std::vector<int>& nodes) {
  std::ostringstream os;
  ArchiveWriter writer(os);
  writer.begin_campaign(kWindow);
  for (const int n : nodes) {
    const cluster::NodeId id = cluster::node_from_index(n);
    writer.begin_node(id);
    writer.on_error_run(run_for_node(n));
    writer.end_node(id);
  }
  writer.end_campaign();
  return os.str();
}

/// Shard archive = UNPH prefix + the node frames this shard owns.
std::string shard_bytes(std::uint32_t count, std::uint32_t index,
                        const std::vector<int>& nodes,
                        std::uint64_t fingerprint = kFingerprint) {
  std::ostringstream os;
  write_shard_header(os, {count, index, fingerprint});
  os << stream_bytes(nodes);
  return os.str();
}

std::string write_temp(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
  return path;
}

TEST(ShardHeader, RoundTrips) {
  std::ostringstream os;
  const ShardHeader header{7, 3, 0x123456789abcdef0ull};
  write_shard_header(os, header);
  std::istringstream is(os.str());
  EXPECT_EQ(read_shard_header(is), header);
}

TEST(ShardHeader, RejectsBadMagicAndTruncation) {
  std::ostringstream os;
  write_shard_header(os, {2, 0, kFingerprint});
  std::string bytes = os.str();

  std::string corrupt = bytes;
  corrupt[0] = 'X';
  std::istringstream bad_magic(corrupt);
  EXPECT_THROW((void)read_shard_header(bad_magic), DecodeError);

  std::istringstream truncated(bytes.substr(0, bytes.size() - 1));
  EXPECT_THROW((void)read_shard_header(truncated), DecodeError);
}

TEST(ShardMerge, EmptyAndSingleRecordShardsMergeToMonolithic) {
  // Shard 1 owns no loud node at all: its stream is header + end frame.
  const std::string p0 = write_temp("smt_e0.unph", shard_bytes(3, 0, {0, 6}));
  const std::string p1 = write_temp("smt_e1.unph", shard_bytes(3, 1, {}));
  const std::string p2 = write_temp("smt_e2.unph", shard_bytes(3, 2, {2}));

  std::ostringstream merged;
  merge_shard_archives({p0, p1, p2}, merged);
  EXPECT_EQ(merged.view(), stream_bytes({0, 2, 6}));

  // The reader agrees on the partition metadata.
  ShardMergeReader reader({p2, p0, p1});  // any path order
  EXPECT_EQ(reader.shard_count(), 3);
  EXPECT_EQ(reader.fingerprint(), kFingerprint);
  EXPECT_EQ(reader.window().start, kWindow.start);
  EXPECT_EQ(reader.window().end, kWindow.end);
  cluster::NodeId node;
  NodeLog log;
  std::vector<int> seen;
  while (reader.next(node, log)) seen.push_back(cluster::node_index(node));
  EXPECT_EQ(seen, (std::vector<int>{0, 2, 6}));
  EXPECT_EQ(reader.frames_merged(), 3u);

  for (const auto& p : {p0, p1, p2}) std::remove(p.c_str());
}

TEST(ShardMerge, DrainDeliversTheMonolithicStreamOnTheFramePath) {
  // drain goes through drain_frames like ArchiveReader::drain: re-spilling
  // the merged frames gives the monolithic stream's bytes; a record sink
  // sees every run.
  const std::string p0 = write_temp("smt_d0.unph", shard_bytes(2, 0, {0, 6, 9}));
  const std::string p1 = write_temp("smt_d1.unph", shard_bytes(2, 1, {1, 2}));
  std::ostringstream respilled;
  ArchiveWriter writer(respilled);
  ShardMergeReader({p0, p1}).drain(writer);
  EXPECT_EQ(respilled.view(), stream_bytes({0, 1, 2, 6, 9}));

  CampaignArchive archive;
  ShardMergeReader({p1, p0}).drain(archive);
  EXPECT_EQ(archive.total_raw_errors(), 5u);
  EXPECT_EQ(archive.log(cluster::node_from_index(9)).error_runs(),
            std::vector<ErrorRun>{run_for_node(9)});
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

/// Body of node `n`'s frame in shard_bytes: its one error run.
std::string body_for_node(int n) {
  NodeLog log;
  log.add_error_run(run_for_node(n));
  return encode_node_log(log);
}

/// shard_bytes written frame by frame, so a test can corrupt a body;
/// `body_at` receives each body's file offset.
std::string hand_shard(std::uint32_t count, std::uint32_t index,
                       const std::vector<std::pair<int, std::string>>& frames,
                       std::vector<std::uint64_t>& body_at) {
  std::ostringstream header;
  write_shard_header(header, {count, index, kFingerprint});
  std::string out = header.str() + "UNPS";
  out.push_back(1);
  put_varint(out, zigzag_encode(kWindow.start));
  put_varint(out, zigzag_encode(kWindow.end));
  for (const auto& [n, body] : frames) {
    put_varint(out, static_cast<std::uint64_t>(n));
    put_varint(out, body.size());
    body_at.push_back(out.size());
    out += body;
  }
  put_varint(out, static_cast<std::uint64_t>(cluster::kStudyNodeSlots));
  put_varint(out, frames.size());
  return out;
}

/// The order in which a drain opens node frames.
class NodeOrderSink final : public RecordSink {
 public:
  void begin_node(cluster::NodeId node) override {
    nodes.push_back(cluster::node_index(node));
  }
  void on_start(const StartRecord&) override {}
  void on_end(const EndRecord&) override {}
  void on_alloc_fail(const AllocFailRecord&) override {}
  void on_error_run(const ErrorRun&) override {}

  std::vector<int> nodes;
};

TEST(ShardMerge, CorruptBodyFailsAtItsFileOffsetThroughNextAndDrain) {
  // Shard 1's second frame (node 3) is damaged.  A body decode error is
  // anchored at the body's file offset plus the offset inside the body;
  // the merge reads a shard's next frame only when it needs that head, so
  // a truncated body surfaces before node 2 is handed out, a corrupt one
  // after it.
  std::vector<std::uint64_t> body_at;
  const std::string intact = hand_shard(
      2, 1, {{1, body_for_node(1)}, {3, body_for_node(3)}}, body_at);
  ASSERT_EQ(intact, shard_bytes(2, 1, {1, 3}));
  const std::uint64_t body3 = body_at[1];
  const std::size_t size3 = body_for_node(3).size();
  const std::string node3 = cluster::node_name(cluster::node_from_index(3));

  struct Case {
    const char* name;
    std::string shard1;
    std::string error;
    std::uint64_t offset;
    std::vector<int> delivered;
  };
  std::vector<Case> cases;
  {
    std::vector<std::uint64_t> unused;
    std::string zero = body_for_node(3);
    zero.back() = 0;  // the run's count
    cases.push_back({"zero-count run",
                     hand_shard(2, 1, {{1, body_for_node(1)}, {3, zero}}, unused),
                     "shard 1: node frame for " + node3 +
                         ": error run with zero count",
                     body3 + size3, {0, 1, 2}});
    std::string trailing = body_for_node(3);
    trailing.push_back(0);
    cases.push_back(
        {"trailing bytes",
         hand_shard(2, 1, {{1, body_for_node(1)}, {3, trailing}}, unused),
         "shard 1: node frame body size mismatch", body3 + size3, {0, 1, 2}});
  }
  cases.push_back({"truncated body",
                   intact.substr(0, static_cast<std::size_t>(body3) + size3 / 2),
                   "shard 1: truncated block (wanted " + std::to_string(size3) +
                       " bytes, got " + std::to_string(size3 / 2) + ")",
                   body3, {0, 1}});

  const std::string p0 = write_temp("smt_c0.unph", shard_bytes(2, 0, {0, 2, 4}));
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string p1 = write_temp("smt_c1.unph", c.shard1);
    {
      ShardMergeReader reader({p0, p1});
      std::vector<int> seen;
      try {
        cluster::NodeId node;
        NodeLog log;
        while (reader.next(node, log)) seen.push_back(cluster::node_index(node));
        FAIL() << "corrupt shard not detected by next()";
      } catch (const DecodeError& e) {
        EXPECT_EQ(e.detail(), c.error);
        EXPECT_EQ(e.byte_offset(), c.offset);
      }
      EXPECT_EQ(seen, c.delivered);
    }
    {
      NodeOrderSink sink;
      try {
        ShardMergeReader({p0, p1}).drain(sink);
        FAIL() << "corrupt shard not detected by drain()";
      } catch (const DecodeError& e) {
        EXPECT_EQ(e.detail(), c.error);
        EXPECT_EQ(e.byte_offset(), c.offset);
      }
      EXPECT_EQ(sink.nodes, c.delivered);
    }
    std::remove(p1.c_str());
  }
  std::remove(p0.c_str());
}

TEST(ShardMerge, AllShardsEmptyYieldsEmptyMonolithicStream) {
  const std::string p0 = write_temp("smt_ae0.unph", shard_bytes(2, 0, {}));
  const std::string p1 = write_temp("smt_ae1.unph", shard_bytes(2, 1, {}));
  std::ostringstream merged;
  merge_shard_archives({p0, p1}, merged);
  EXPECT_EQ(merged.view(), stream_bytes({}));
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

TEST(ShardMerge, RejectsIncompleteOrMismatchedPartitions) {
  const std::string p0 = write_temp("smt_m0.unph", shard_bytes(2, 0, {0}));
  const std::string p1 = write_temp("smt_m1.unph", shard_bytes(2, 1, {1}));
  const std::string p1_of3 = write_temp("smt_m2.unph", shard_bytes(3, 1, {1}));
  const std::string p1_fp =
      write_temp("smt_m3.unph", shard_bytes(2, 1, {1}, 0x999));

  EXPECT_THROW(ShardMergeReader({p0}), ContractViolation);         // missing
  EXPECT_THROW(ShardMergeReader({p0, p0}), ContractViolation);     // duplicate
  EXPECT_THROW(ShardMergeReader({p0, p1_of3}), ContractViolation); // count
  EXPECT_THROW(ShardMergeReader({p0, p1_fp}), ContractViolation);  // ensemble

  ShardMergeReader ok({p0, p1});
  EXPECT_EQ(ok.shard_count(), 2);
  for (const auto& p : {p0, p1, p1_of3, p1_fp}) std::remove(p.c_str());
}

TEST(ShardMerge, OverlappingPartitionIsRejected) {
  // Both shards claim node 5: the partition invariant is broken and a
  // "stable merge" of the streams would be ambiguous.
  const std::string p0 = write_temp("smt_o0.unph", shard_bytes(2, 0, {5}));
  const std::string p1 = write_temp("smt_o1.unph", shard_bytes(2, 1, {5}));
  std::ostringstream merged;
  try {
    merge_shard_archives({p0, p1}, merged);
    FAIL() << "overlapping partition not detected";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.detail()).find("overlapping"), std::string::npos)
        << e.detail();
  }
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

TEST(ShardMerge, TruncationNamesShardAndByteOffset) {
  const std::string p0 = write_temp("smt_t0.unph", shard_bytes(2, 0, {0, 2}));
  const std::string full = shard_bytes(2, 1, {1, 3});
  // Cut mid-frame, well past the header, so the failure surfaces while
  // decoding shard 1's second frame.
  const std::string p1 =
      write_temp("smt_t1.unph", full.substr(0, full.size() - 4));

  try {
    ShardMergeReader reader({p0, p1});
    cluster::NodeId node;
    NodeLog log;
    while (reader.next(node, log)) {
    }
    FAIL() << "truncated shard not detected";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.detail()).find("shard 1"), std::string::npos)
        << e.detail();
    EXPECT_GT(e.byte_offset(), 0u);
    EXPECT_LT(e.byte_offset(), full.size());
  }
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

TEST(ShardMerge, CursorsResumeExactlyWhereTheMergeStopped) {
  const std::string p0 =
      write_temp("smt_c0.unph", shard_bytes(2, 0, {0, 2, 4, 8}));
  const std::string p1 = write_temp("smt_c1.unph", shard_bytes(2, 1, {1, 5}));
  const std::vector<std::string> paths = {p0, p1};

  std::vector<int> all;
  {
    ShardMergeReader reader(paths);
    cluster::NodeId node;
    NodeLog log;
    while (reader.next(node, log)) all.push_back(cluster::node_index(node));
  }
  ASSERT_EQ(all, (std::vector<int>{0, 1, 2, 4, 5, 8}));

  // Stop after every possible prefix, snapshot, resume, finish.
  for (std::size_t stop = 0; stop <= all.size(); ++stop) {
    SCOPED_TRACE(testing::Message() << "stop=" << stop);
    ShardMergeReader first(paths);
    cluster::NodeId node;
    NodeLog log;
    std::vector<int> seen;
    for (std::size_t i = 0; i < stop; ++i) {
      ASSERT_TRUE(first.next(node, log));
      seen.push_back(cluster::node_index(node));
    }
    const std::vector<ShardCursor> cursors = first.cursors();

    ShardMergeReader resumed(paths, cursors);
    while (resumed.next(node, log)) seen.push_back(cluster::node_index(node));
    EXPECT_EQ(seen, all);
  }

  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

}  // namespace
}  // namespace unp::telemetry
