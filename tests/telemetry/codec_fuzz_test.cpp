// Robustness of the log parsers against malformed input: every line either
// parses, is ignored, or throws ContractViolation - never crashes, loops,
// or silently corrupts.  Mutations are seeded random edits of valid lines
// plus unstructured garbage, for both the text and the binary codec; and,
// for UNPS streams, the lazy (optionally parallel) drain must accept and
// reject exactly what a full serial decode does, with the same error.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/binary_codec.hpp"
#include "telemetry/codec.hpp"

namespace unp::telemetry {
namespace {

const char* kValidLines[] = {
    "START 2015-02-01T00:12:03 host=07-03 bytes=3221225472 temp=33.4",
    "END 2015-02-01T06:00:00 host=07-03 temp=33.9",
    "ALLOCFAIL 2015-02-02T10:00:00 host=07-03",
    "ERROR 2015-11-03T07:08:09 host=02-04 vaddr=0x000012345678 "
    "expected=0xffffffff actual=0xffff7bff temp=34.1 page=0x000012345",
    "ERRRUN 2015-11-03T07:08:09 host=02-04 vaddr=0x000012345678 "
    "expected=0xffffffff actual=0xffff7bff temp=34.1 page=0x000012345 "
    "period=150 count=12000",
};

class TextCodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TextCodecFuzz, MutatedLinesNeverCrash) {
  RngStream rng(GetParam());
  for (int trial = 0; trial < 4000; ++trial) {
    std::string line = kValidLines[rng.uniform_u64(std::size(kValidLines))];
    const auto edits = 1 + rng.uniform_u64(6);
    for (std::uint64_t e = 0; e < edits; ++e) {
      if (line.empty()) break;
      const std::size_t pos = rng.uniform_u64(line.size());
      switch (rng.uniform_u64(3)) {
        case 0:  // replace with random byte
          line[pos] = static_cast<char>(rng.uniform_u64(256));
          break;
        case 1:  // delete
          line.erase(pos, 1);
          break;
        default:  // duplicate a chunk
          line.insert(pos, line.substr(pos, rng.uniform_u64(8)));
          break;
      }
    }
    NodeLog log;
    try {
      (void)parse_line(line, log);
    } catch (const ContractViolation&) {
      // Rejection is a valid outcome; anything else would fail the test.
    }
  }
}

TEST_P(TextCodecFuzz, PureGarbageNeverCrashes) {
  RngStream rng(GetParam() + 1000);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string line;
    const auto len = rng.uniform_u64(120);
    for (std::uint64_t i = 0; i < len; ++i) {
      line.push_back(static_cast<char>(1 + rng.uniform_u64(255)));
    }
    NodeLog log;
    try {
      (void)parse_line(line, log);
    } catch (const ContractViolation&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextCodecFuzz, ::testing::Values(1, 2, 3));

class BinaryCodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinaryCodecFuzz, MutatedArchivesNeverCrash) {
  // Build a small valid archive, then hammer it with random mutations.
  CampaignArchive archive;
  ErrorRecord err;
  err.node = {3, 3};
  err.time = from_civil_utc({2015, 5, 1, 0, 0, 0});
  err.expected = 0xFFFFFFFFu;
  err.actual = 0xFFFFFFFEu;
  archive.log({3, 3}).add_error(err);
  archive.log({3, 3}).add_start({err.time - 100, {3, 3}, 1 << 20, 30.0});
  const std::string valid = encode_archive(archive);

  RngStream rng(GetParam());
  for (int trial = 0; trial < 3000; ++trial) {
    std::string bytes = valid;
    const auto edits = 1 + rng.uniform_u64(8);
    for (std::uint64_t e = 0; e < edits; ++e) {
      switch (rng.uniform_u64(3)) {
        case 0:
          bytes[rng.uniform_u64(bytes.size())] =
              static_cast<char>(rng.uniform_u64(256));
          break;
        case 1:
          bytes.resize(rng.uniform_u64(bytes.size()) + 1);
          break;
        default:
          bytes.push_back(static_cast<char>(rng.uniform_u64(256)));
          break;
      }
    }
    try {
      (void)decode_archive(bytes);
    } catch (const ContractViolation&) {
      // Expected for corrupt input.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryCodecFuzz, ::testing::Values(7, 8, 9));

// --- UNPS stream: lazy/parallel drain against a full serial decode ---------

/// A small valid UNPS stream: four nodes with sessions, alloc-fails and
/// error runs (with and without temperature readings).
std::string small_unps_stream() {
  std::ostringstream os(std::ios::binary);
  ArchiveWriter writer(os);
  writer.begin_campaign(CampaignWindow{});
  const TimePoint t0 = from_civil_utc({2015, 5, 1, 0, 0, 0});
  for (const int index : {3, 40, 41, 500}) {
    const cluster::NodeId node = cluster::node_from_index(index);
    writer.begin_node(node);
    writer.on_start({t0 + index, node, 1 << 20, index % 2 ? 30.5 : kNoTemperature});
    writer.on_end({t0 + 3600 + index, node, 31.0});
    if (index == 40) writer.on_alloc_fail({t0 + 7200, node});
    for (int r = 0; r < index % 5 + 1; ++r) {
      ErrorRecord err;
      err.time = t0 + 60 * r;
      err.node = node;
      err.virtual_address = 4u * static_cast<std::uint64_t>(r + index);
      err.expected = 0xFFFFFFFFu;
      err.actual = 0xFFFFFFFEu;
      err.temperature_c = r % 2 ? kNoTemperature : 33.0;
      writer.on_error_run({err, r % 2 ? 0 : 300, r % 2 ? 1u : 7u});
    }
    writer.end_node(node);
  }
  writer.finish();
  return os.str();
}

/// The records every frame carried, as text, then the error that ended the
/// stream ("" when it ended cleanly).
struct StreamOutcome {
  std::vector<std::string> frames;
  std::string error;

  friend bool operator==(const StreamOutcome&, const StreamOutcome&) = default;
};

std::string describe(cluster::NodeId node, const NodeLog& log) {
  std::string out = cluster::node_name(node);
  for (const auto& r : log.starts())
    out += " S" + std::to_string(r.time) + "/" + std::to_string(r.allocated_bytes);
  for (const auto& r : log.ends()) out += " E" + std::to_string(r.time);
  for (const auto& r : log.alloc_fails()) out += " A" + std::to_string(r.time);
  for (const auto& r : log.error_runs())
    out += " R" + std::to_string(r.first.time) + "/" +
           std::to_string(r.first.virtual_address) + "x" +
           std::to_string(r.count);
  return out;
}

/// ArchiveReader::next: decode_node_log on every frame, one after another.
StreamOutcome serial_decode(const std::string& bytes) {
  StreamOutcome out;
  std::istringstream is(bytes, std::ios::binary);
  try {
    ArchiveReader reader(is);
    cluster::NodeId node;
    NodeLog log;
    while (reader.next(node, log)) out.frames.push_back(describe(node, log));
  } catch (const ContractViolation& e) {
    out.error = e.what();
  }
  return out;
}

class DescribingSink final : public RecordSink {
 public:
  explicit DescribingSink(StreamOutcome& out) : out_(out) {}
  void on_start(const StartRecord&) override {}
  void on_end(const EndRecord&) override {}
  void on_alloc_fail(const AllocFailRecord&) override {}
  void on_error_run(const ErrorRun&) override {}
  void on_node_log(EncodedNodeLog& enc) override {
    out_.frames.push_back(describe(enc.node(), enc.log()));
  }

 private:
  StreamOutcome& out_;
};

/// ArchiveReader::drain: frames scanned lazily, runs built on log().
StreamOutcome lazy_drain(const std::string& bytes) {
  StreamOutcome out;
  std::istringstream is(bytes, std::ios::binary);
  try {
    ArchiveReader reader(is);
    DescribingSink sink(out);
    reader.drain(sink);
  } catch (const ContractViolation& e) {
    out.error = e.what();
  }
  return out;
}

/// The process's peak resident set so far, in KiB.
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

class StreamFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamFuzz, LazyDrainAcceptsAndRejectsLikeFullDecode) {
  const std::string valid = small_unps_stream();
  {
    const StreamOutcome clean = serial_decode(valid);
    ASSERT_TRUE(clean.error.empty()) << clean.error;
    ASSERT_EQ(clean.frames.size(), 4u);
  }
  RngStream rng(GetParam());
  int rejected = 0;
  const long rss_before = peak_rss_kib();
  for (int trial = 0; trial < 1500; ++trial) {
    std::string bytes = valid;
    const auto edits = 1 + rng.uniform_u64(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      // Mutate past the 5-byte magic+version most of the time: header
      // rejections are the dull case.
      const std::size_t pos =
          5 + rng.uniform_u64(bytes.size() > 6 ? bytes.size() - 5 : 1);
      switch (rng.uniform_u64(4)) {
        case 0:
          if (pos < bytes.size())
            bytes[pos] = static_cast<char>(rng.uniform_u64(256));
          break;
        case 1:
          bytes.resize(std::min(bytes.size(), pos));
          break;
        case 2:  // a huge varint (e.g. a body size): memory must stay bounded
          if (pos < bytes.size()) {
            std::string big;
            put_varint(big, rng.next_u64() >> rng.uniform_u64(64));
            bytes.replace(pos, 1, big);
          }
          break;
        default:
          bytes.insert(std::min(bytes.size(), pos), 1,
                       static_cast<char>(rng.uniform_u64(256)));
          break;
      }
    }
    const StreamOutcome expected = serial_decode(bytes);
    rejected += expected.error.empty() ? 0 : 1;
    EXPECT_EQ(lazy_drain(bytes), expected) << "trial " << trial;
  }
  EXPECT_GT(rejected, 500);  // the mutations do reach the decoders
  // Memory stays bounded: a corrupt size or count (up to 2^64) on this
  // ~1 KB stream never gets its declared storage allocated and touched.
  EXPECT_LT(peak_rss_kib() - rss_before, 64 * 1024);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamFuzz, ::testing::Values(11, 12, 13));

}  // namespace
}  // namespace unp::telemetry
