// ArchiveWriter/ArchiveReader: the streaming on-disk spill format.
#include "telemetry/archive_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::telemetry {
namespace {

NodeLog sample_log(cluster::NodeId node) {
  NodeLog log;
  log.add_start({from_civil_utc({2015, 3, 1, 1, 0, 0}), node, 3ULL << 30, 31.5});
  log.add_end({from_civil_utc({2015, 3, 1, 9, 30, 0}), node, 32.25});
  log.add_alloc_fail({from_civil_utc({2015, 3, 2, 4, 0, 0}), node});
  ErrorRecord err;
  err.time = from_civil_utc({2015, 3, 1, 2, 0, 0});
  err.node = node;
  err.virtual_address = 0xBEEF00;
  err.expected = 0xFFFFFFFFu;
  err.actual = 0xFFFF7BFFu;
  err.temperature_c = 34.125;
  err.physical_page = 0x12345;
  log.add_error_run({err, 150, 42});
  return log;
}

std::string write_sample_stream(const CampaignWindow& window) {
  std::ostringstream os(std::ios::binary);
  ArchiveWriter writer(os);
  writer.begin_campaign(window);
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    writer.begin_node(node);
    if (i == 17 || i == 200) replay_node_log(sample_log(node), writer);
    writer.end_node(node);
  }
  writer.finish();
  return os.str();
}

TEST(ArchiveStream, RoundTripThroughSinkProtocol) {
  CampaignWindow window;
  const std::string bytes = write_sample_stream(window);

  std::istringstream is(bytes, std::ios::binary);
  ArchiveReader reader(is);
  EXPECT_EQ(reader.window().start, window.start);
  EXPECT_EQ(reader.window().end, window.end);

  CampaignArchive archive;
  reader.drain(archive);
  EXPECT_EQ(reader.frames_read(), 2u);  // empty nodes are elided
  EXPECT_EQ(archive.log({1, 2}).error_runs(),
            sample_log({1, 2}).error_runs());  // node_index({1,2}) == 17
  EXPECT_EQ(archive.log({0, 0}).starts().size(), 0u);
  EXPECT_EQ(archive.total_raw_errors(), 2u * 42u);
}

TEST(ArchiveStream, DrainIntoWriterReproducesStreamBytes) {
  // drain hands each frame's body to the writer as pre-encoded bytes: the
  // re-spilled stream must equal the original byte for byte.
  const std::string bytes = write_sample_stream(CampaignWindow{});
  std::istringstream is(bytes, std::ios::binary);
  std::ostringstream os(std::ios::binary);
  ArchiveWriter writer(os);
  ArchiveReader(is).drain(writer);
  EXPECT_EQ(writer.frames_written(), 2u);
  EXPECT_EQ(os.str(), bytes);
}

TEST(ArchiveStream, NodeByNodeIteration) {
  const std::string bytes = write_sample_stream(CampaignWindow{});
  std::istringstream is(bytes, std::ios::binary);
  ArchiveReader reader(is);

  cluster::NodeId node;
  NodeLog log;
  ASSERT_TRUE(reader.next(node, log));
  EXPECT_EQ(cluster::node_index(node), 17);
  EXPECT_EQ(log.starts(), sample_log(node).starts());
  ASSERT_TRUE(reader.next(node, log));
  EXPECT_EQ(cluster::node_index(node), 200);
  EXPECT_FALSE(reader.next(node, log));
  EXPECT_FALSE(reader.next(node, log));  // stays done
}

TEST(ArchiveStream, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "unp_stream_test.unps").string();
  CampaignArchive archive;
  archive.log({7, 3}) = sample_log({7, 3});
  archive.log({62, 14}) = sample_log({62, 14});
  save_archive_stream(archive, path);
  const CampaignArchive loaded = load_archive_stream(path);
  EXPECT_EQ(loaded.log({7, 3}).starts(), archive.log({7, 3}).starts());
  EXPECT_EQ(loaded.log({62, 14}).error_runs(), archive.log({62, 14}).error_runs());
  EXPECT_EQ(loaded.total_raw_errors(), archive.total_raw_errors());
  std::filesystem::remove(path);
}

TEST(ArchiveStream, RejectsCorruptMagicAndVersion) {
  const std::string bytes = write_sample_stream(CampaignWindow{});
  {
    std::string bad = bytes;
    bad[0] = 'X';
    std::istringstream is(bad, std::ios::binary);
    EXPECT_THROW(ArchiveReader reader(is), ContractViolation);
  }
  {
    std::string bad = bytes;
    bad[4] = 99;  // unknown version
    std::istringstream is(bad, std::ios::binary);
    EXPECT_THROW(ArchiveReader reader(is), ContractViolation);
  }
}

TEST(ArchiveStream, RejectsTruncation) {
  const std::string bytes = write_sample_stream(CampaignWindow{});
  // Truncate at every suffix length: the reader must throw (or, for a cut
  // exactly after the header, report frames but never validate the end
  // frame) - it must never return corrupt data silently.
  for (std::size_t cut = 5; cut + 1 < bytes.size(); cut += 7) {
    std::istringstream is(bytes.substr(0, cut), std::ios::binary);
    bool threw = false;
    try {
      ArchiveReader reader(is);
      CampaignArchive archive;
      reader.drain(archive);
    } catch (const ContractViolation&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "no rejection when truncated to " << cut << " bytes";
  }
}

TEST(ArchiveStream, RejectsWrongFrameCount) {
  std::string bytes = write_sample_stream(CampaignWindow{});
  // The end frame is ...<sentinel varint><count varint>; count is 2 (one
  // byte).  Patch it to 3.
  ASSERT_EQ(static_cast<unsigned char>(bytes.back()), 2u);
  bytes.back() = 3;
  std::istringstream is(bytes, std::ios::binary);
  ArchiveReader reader(is);
  CampaignArchive archive;
  EXPECT_THROW(reader.drain(archive), ContractViolation);
}

TEST(ArchiveStream, RejectsOutOfRangeNodeIndex) {
  std::ostringstream os(std::ios::binary);
  ArchiveWriter writer(os);
  writer.begin_campaign(CampaignWindow{});
  writer.finish();
  std::string bytes = os.str();
  // Remove the end frame and splice in a frame claiming an invalid index
  // one past the sentinel.
  bytes.resize(bytes.size() - 3);
  std::string frame;
  put_varint(frame, static_cast<std::uint64_t>(cluster::kStudyNodeSlots) + 1);
  put_varint(frame, 0);
  bytes += frame;
  std::istringstream is(bytes, std::ios::binary);
  ArchiveReader reader(is);
  cluster::NodeId node;
  NodeLog log;
  EXPECT_THROW((void)reader.next(node, log), ContractViolation);
}

TEST(ArchiveWriterContract, RecordsOutsideNodeFrameThrow) {
  std::ostringstream os(std::ios::binary);
  ArchiveWriter writer(os);
  writer.begin_campaign(CampaignWindow{});
  EXPECT_THROW(writer.on_start({0, {1, 1}, 0, kNoTemperature}),
               ContractViolation);
  writer.begin_node({1, 1});
  EXPECT_THROW(writer.begin_node({1, 2}), ContractViolation);  // nested frame
}

// --- Lazy, parallel drain ----------------------------------------------------

/// A node log with `runs` error runs (thousands stand in for the
/// pathological node).  The last run carries no temperature, period 0,
/// page 0 and count 1, so its encoding ends in the bytes
/// [flag 0][page 0][period 0][count 1].
NodeLog synthetic_log(cluster::NodeId node, int runs) {
  NodeLog log = sample_log(node);
  const TimePoint t0 = from_civil_utc({2015, 3, 1, 3, 0, 0});
  for (int r = 0; r < runs; ++r) {
    ErrorRecord err;
    err.time = t0 + r / 4;
    err.node = node;
    err.virtual_address = 4u * static_cast<std::uint64_t>(r % 977);
    err.expected = 0xFFFFFFFFu;
    err.actual = 0xFFFFFFFFu ^ (1u << (r % 32));
    const bool last = r + 1 == runs;
    err.temperature_c = last ? kNoTemperature : 30.0 + r % 7;
    err.physical_page = last ? 0 : 0x1000u + static_cast<std::uint64_t>(r);
    log.add_error_run(
        {err, last ? 0 : 150, last ? 1u : 1u + static_cast<unsigned>(r % 5)});
  }
  return log;
}

/// The frames of a test stream: `frames` non-empty nodes (every seventh
/// slot), the one at position `big_at` holding 20,000 runs.
std::vector<std::pair<cluster::NodeId, std::string>> stream_frames(
    int frames, int big_at) {
  std::vector<std::pair<cluster::NodeId, std::string>> out;
  for (int f = 0; f < frames; ++f) {
    const cluster::NodeId node = cluster::node_from_index(7 * f);
    out.emplace_back(node,
                     encode_node_log(synthetic_log(node, f == big_at ? 20000 : 3 + f)));
  }
  return out;
}

/// UNPS bytes of `frames`, written by hand so a test can corrupt a body.
std::string stream_bytes(
    const std::vector<std::pair<cluster::NodeId, std::string>>& frames) {
  const CampaignWindow window;
  std::string out = "UNPS";
  out.push_back(1);
  put_varint(out, zigzag_encode(window.start));
  put_varint(out, zigzag_encode(window.end));
  for (const auto& [node, body] : frames) {
    put_varint(out, static_cast<std::uint64_t>(cluster::node_index(node)));
    put_varint(out, body.size());
    out += body;
  }
  put_varint(out, static_cast<std::uint64_t>(cluster::kStudyNodeSlots));
  put_varint(out, frames.size());
  return out;
}

/// Everything a sink observes of a drain.  With `read_runs` it reads each
/// node's whole log; without, only what the lazy consumers read (counts,
/// sessions, bytes), and it records that the runs stayed unbuilt.
class RecordingSink final : public RecordSink {
 public:
  explicit RecordingSink(bool read_runs) : read_runs_(read_runs) {}

  void begin_campaign(const CampaignWindow& w) override {
    events.push_back("campaign " + std::to_string(w.start));
  }
  void begin_node(cluster::NodeId node) override {
    events.push_back("begin " + cluster::node_name(node));
  }
  void end_node(cluster::NodeId node) override {
    events.push_back("end " + cluster::node_name(node));
  }
  void end_campaign() override { events.push_back("end campaign"); }
  void on_start(const StartRecord&) override { events.push_back("start"); }
  void on_end(const EndRecord&) override { events.push_back("END"); }
  void on_alloc_fail(const AllocFailRecord&) override {
    events.push_back("alloc-fail");
  }
  void on_error_run(const ErrorRun&) override { events.push_back("run"); }

  void on_node_log(EncodedNodeLog& enc) override {
    bytes.push_back(enc.bytes());
    const SessionRecords s = enc.sessions();
    events.push_back("sessions " + std::to_string(s.starts.size()) + "/" +
                     std::to_string(s.ends.size()) + "/" +
                     std::to_string(s.alloc_fails.size()) + " runs " +
                     std::to_string(enc.error_run_count()) + " raw " +
                     std::to_string(enc.raw_error_count()));
    if (read_runs_) {
      logs.push_back(enc.log());
    } else {
      if (!enc.runs_built()) ++unbuilt;
    }
  }

  std::vector<std::string> events;
  std::vector<std::string> bytes;
  std::vector<NodeLog> logs;
  std::size_t unbuilt = 0;

 private:
  bool read_runs_;
};

void expect_same_logs(const std::vector<NodeLog>& a,
                      const std::vector<NodeLog>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].starts(), b[i].starts()) << "frame " << i;
    EXPECT_EQ(a[i].ends(), b[i].ends()) << "frame " << i;
    EXPECT_EQ(a[i].alloc_fails(), b[i].alloc_fails()) << "frame " << i;
    EXPECT_EQ(a[i].error_runs(), b[i].error_runs()) << "frame " << i;
  }
}

/// The logs next() decodes in full from `bytes`, frame by frame.
std::vector<NodeLog> decode_all(const std::string& bytes) {
  std::vector<NodeLog> out;
  std::istringstream is(bytes, std::ios::binary);
  ArchiveReader reader(is);
  cluster::NodeId node;
  NodeLog log;
  while (reader.next(node, log)) out.push_back(log);
  return out;
}

TEST(ArchiveDrain, LazyDrainMatchesFullDecodeWherePathologicalNodeSits) {
  constexpr int kFrames = 40;
  constexpr auto kCount = static_cast<std::size_t>(kFrames);
  for (const int big_at : {0, kFrames / 2, kFrames - 1}) {
    SCOPED_TRACE("big frame at " + std::to_string(big_at));
    const auto frames = stream_frames(kFrames, big_at);
    const std::string bytes = stream_bytes(frames);
    const std::vector<NodeLog> decoded = decode_all(bytes);
    ASSERT_EQ(decoded.size(), kCount);

    RecordingSink lazy(/*read_runs=*/false);
    RecordingSink full(/*read_runs=*/true);
    for (RecordingSink* sink : {&lazy, &full}) {
      std::istringstream is(bytes, std::ios::binary);
      ArchiveReader reader(is);
      reader.drain(*sink);
      EXPECT_EQ(reader.frames_read(), static_cast<std::uint64_t>(kFrames));
      ASSERT_EQ(sink->bytes.size(), kCount);
      for (std::size_t f = 0; f < kCount; ++f)
        EXPECT_EQ(sink->bytes[f], frames[f].second) << "frame " << f;
    }
    // Same framing, session records and counts whether or not the runs
    // are read; the counts are those of the fully decoded log.
    EXPECT_EQ(lazy.events, full.events);
    EXPECT_EQ(lazy.unbuilt, kCount);
    expect_same_logs(full.logs, decoded);
    std::vector<std::string> counts;
    for (const auto& ev : lazy.events)
      if (ev.rfind("sessions ", 0) == 0) counts.push_back(ev);
    ASSERT_EQ(counts.size(), kCount);
    for (std::size_t f = 0; f < kCount; ++f) {
      const NodeLog& log = decoded[f];
      EXPECT_EQ(counts[f], "sessions " + std::to_string(log.starts().size()) +
                               "/" + std::to_string(log.ends().size()) + "/" +
                               std::to_string(log.alloc_fails().size()) +
                               " runs " + std::to_string(log.error_runs().size()) +
                               " raw " + std::to_string(log.raw_error_count()));
    }
  }
}

/// What a fully decoding serial reader (next(), decode_node_log per frame)
/// makes of `bytes`: the nodes it returned, then the error it threw.
struct SerialOutcome {
  std::vector<std::string> nodes;
  std::string error;
  std::uint64_t offset = 0;
};

SerialOutcome decode_serially(const std::string& bytes) {
  SerialOutcome out;
  std::istringstream is(bytes, std::ios::binary);
  try {
    ArchiveReader reader(is);
    cluster::NodeId node;
    NodeLog log;
    while (reader.next(node, log)) out.nodes.push_back(cluster::node_name(node));
  } catch (const DecodeError& e) {
    out.error = e.what();
    out.offset = e.byte_offset();
  }
  return out;
}

TEST(ArchiveDrain, CorruptFrameThrowsSerialErrorAndStopsDelivery) {
  constexpr int kFrames = 12;
  const auto frames = stream_frames(kFrames, 6);
  const std::string good = stream_bytes(frames);
  struct Corruption {
    const char* name;
    const char* detail;
    void (*apply)(std::string& body);
  };
  const Corruption corruptions[] = {
      {"zero-count run", "error run with zero count",
       [](std::string& body) { body.back() = 0; }},
      {"bad temperature flag", "bad temperature flag",
       [](std::string& body) { body[body.size() - 4] = 2; }},
      {"trailing bytes", "node frame body size mismatch",
       [](std::string& body) { body.push_back(0); }},
  };
  for (const int k : {0, 5, 6, kFrames - 1}) {
    std::vector<std::string> cases;
    std::vector<std::string> names;
    for (const auto& c : corruptions) {
      auto bad = frames;
      c.apply(bad[static_cast<std::size_t>(k)].second);
      cases.push_back(stream_bytes(bad));
      names.push_back(c.name);
    }
    // Truncated body: the stream ends halfway through frame k's body.
    const std::string prefix = stream_bytes(
        {frames.begin(), frames.begin() + k + 1});
    std::string end_frame;
    put_varint(end_frame, static_cast<std::uint64_t>(cluster::kStudyNodeSlots));
    put_varint(end_frame, static_cast<std::uint64_t>(k + 1));
    const std::size_t half = frames[static_cast<std::size_t>(k)].second.size() / 2;
    cases.push_back(prefix.substr(0, prefix.size() - end_frame.size() - half));
    names.push_back("truncated body");

    for (std::size_t c = 0; c < cases.size(); ++c) {
      SCOPED_TRACE(names[c] + " in frame " + std::to_string(k));
      const SerialOutcome expected = decode_serially(cases[c]);
      ASSERT_FALSE(expected.error.empty());
      ASSERT_EQ(expected.nodes.size(), static_cast<std::size_t>(k));
      if (c < std::size(corruptions)) {
        EXPECT_NE(expected.error.find(corruptions[c].detail), std::string::npos)
            << expected.error;
      }
      RecordingSink sink(/*read_runs=*/false);
      std::istringstream is(cases[c], std::ios::binary);
      ArchiveReader reader(is);
      try {
        reader.drain(sink);
        FAIL() << "corrupt frame not detected";
      } catch (const DecodeError& e) {
        EXPECT_EQ(std::string(e.what()), expected.error);
        EXPECT_EQ(e.byte_offset(), expected.offset);
      }
      // Frames 0..k-1 were delivered whole; nothing after them.
      std::vector<std::string> delivered;
      for (const auto& ev : sink.events)
        if (ev.rfind("begin ", 0) == 0) delivered.push_back(ev.substr(6));
      EXPECT_EQ(delivered, expected.nodes);
      EXPECT_NE(sink.events.back(), "end campaign");
    }
  }
}

TEST(ArchiveDrain, ReadBlockDoesNotAllocateADeclaredHugeSize) {
  // A frame claiming a 1 TiB body on a short stream fails as a truncated
  // block (the reader grows its buffer with the bytes that arrive).
  std::string bytes = stream_bytes({});
  bytes.resize(bytes.size() - 2);  // drop the end frame
  put_varint(bytes, 3);
  put_varint(bytes, std::uint64_t{1} << 40);
  bytes += "abc";
  std::istringstream is(bytes, std::ios::binary);
  ArchiveReader reader(is);
  cluster::NodeId node;
  NodeLog log;
  try {
    (void)reader.next(node, log);
    FAIL() << "truncated block not detected";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.detail(), "truncated block (wanted 1099511627776 bytes, got 3)");
  }
}

}  // namespace
}  // namespace unp::telemetry
