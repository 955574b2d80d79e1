#include "telemetry/archive_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/require.hpp"
#include "telemetry/binary_codec.hpp"
#include "telemetry/kernels/kernels.hpp"

namespace unp::telemetry {

namespace {

constexpr char kStreamMagic[4] = {'U', 'N', 'P', 'S'};
constexpr std::uint8_t kStreamVersion = 1;
/// Node-index sentinel opening the end frame (no valid node carries it).
constexpr std::uint64_t kEndFrame =
    static_cast<std::uint64_t>(cluster::kStudyNodeSlots);

void write_varint(std::ostream& os, std::uint64_t value) {
  std::string buf;
  put_varint(buf, value);
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  UNP_REQUIRE(os.good());
}

/// Stream offset for decode-error context; 0 when the stream cannot tell
/// (already failed, or not seekable).
std::uint64_t stream_offset(std::istream& is) {
  const std::streamoff off = is.rdstate() ? -1 : std::streamoff(is.tellg());
  return off < 0 ? 0 : static_cast<std::uint64_t>(off);
}

std::uint64_t read_varint(std::istream& is) {
  const std::uint64_t start = stream_offset(is);
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    const int c = is.get();
    if (c == std::char_traits<char>::eof())
      throw DecodeError("truncated varint", start);
    if (shift >= 64)
      throw DecodeError("varint overflow (> 10 bytes)", start);
    if (shift == 63 && (c & 0x7E) != 0)
      throw DecodeError("varint overflow (bits beyond 64)", start);
    value |= static_cast<std::uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) return value;
    shift += 7;
  }
}

/// Read exactly `size` bytes into `out` (its capacity is reused).
void read_exact(std::istream& is, std::uint64_t size, std::string& out) {
  const std::uint64_t start = stream_offset(is);
  out.resize(size);
  is.read(out.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(is.gcount()) != size)
    throw DecodeError("truncated block (wanted " + std::to_string(size) +
                          " bytes, got " + std::to_string(is.gcount()) + ")",
                      start);
}

}  // namespace

ArchiveWriter::ArchiveWriter(std::ostream& os,
                             const kernels::EncodeKernels* encode)
    : os_(&os),
      encode_(encode != nullptr ? encode : &kernels::active_encode_kernels()) {}

void ArchiveWriter::begin_campaign(const CampaignWindow& window) {
  UNP_REQUIRE(!header_written_);
  os_->write(kStreamMagic, sizeof kStreamMagic);
  os_->put(static_cast<char>(kStreamVersion));
  write_varint(*os_, zigzag_encode(window.start));
  write_varint(*os_, zigzag_encode(window.end));
  UNP_REQUIRE(os_->good());
  header_written_ = true;
}

void ArchiveWriter::begin_node(cluster::NodeId node) {
  UNP_REQUIRE(header_written_ && !finished_ && !node_open_);
  (void)node;
  pending_.clear();  // keep capacity across frames
  bulk_ = false;
  node_open_ = true;
}

void ArchiveWriter::on_start(const StartRecord& r) {
  UNP_REQUIRE(node_open_);
  pending_.add_start(r);
}

void ArchiveWriter::on_end(const EndRecord& r) {
  UNP_REQUIRE(node_open_);
  pending_.add_end(r);
}

void ArchiveWriter::on_alloc_fail(const AllocFailRecord& r) {
  UNP_REQUIRE(node_open_);
  pending_.add_alloc_fail(r);
}

void ArchiveWriter::on_error_run(const ErrorRun& r) {
  UNP_REQUIRE(node_open_);
  pending_.add_error_run(r);
}

void ArchiveWriter::on_node_log(EncodedNodeLog& log) {
  // A bulk frame replaces the per-record collection: no records may have
  // been pushed into this frame already, and none may follow.
  UNP_REQUIRE(node_open_ && pending_.empty());
  bulk_ = true;
  if (log.empty()) return;  // empty frames are elided
  write_varint(*os_,
               static_cast<std::uint64_t>(cluster::node_index(log.node())));
  const std::string& body = log.bytes();
  write_varint(*os_, body.size());
  os_->write(body.data(), static_cast<std::streamsize>(body.size()));
  UNP_REQUIRE(os_->good());
  ++frames_;
}

void ArchiveWriter::end_node(cluster::NodeId node) {
  UNP_REQUIRE(node_open_);
  node_open_ = false;
  if (bulk_) {  // frame already written (or elided) by on_node_log
    bulk_ = false;
    return;
  }
  // Empty frames are elided, mirroring encode_archive's non-empty-only rule.
  if (pending_.empty()) return;
  write_varint(*os_, static_cast<std::uint64_t>(cluster::node_index(node)));
  body_.clear();
  encode_node_log_into(pending_, body_, *encode_, &arena_);
  write_varint(*os_, body_.size());
  os_->write(body_.data(), static_cast<std::streamsize>(body_.size()));
  UNP_REQUIRE(os_->good());
  pending_.clear();
  ++frames_;
}

void ArchiveWriter::finish() {
  if (finished_) return;
  UNP_REQUIRE(header_written_ && !node_open_);
  write_varint(*os_, kEndFrame);
  write_varint(*os_, frames_);
  os_->flush();
  UNP_REQUIRE(os_->good());
  finished_ = true;
}

ArchiveReader::ArchiveReader(std::istream& is) : is_(&is) {
  std::string magic;
  read_exact(is, sizeof kStreamMagic, magic);
  if (std::memcmp(magic.data(), kStreamMagic, sizeof kStreamMagic) != 0)
    throw DecodeError("bad UNPS magic", 0);
  const int version = is.get();
  if (version != kStreamVersion)
    throw DecodeError("unsupported UNPS version " + std::to_string(version),
                      sizeof kStreamMagic);
  window_.start = zigzag_decode(read_varint(is));
  window_.end = zigzag_decode(read_varint(is));
}

bool ArchiveReader::next(cluster::NodeId& node, NodeLog& log) {
  std::string body;
  return next(node, log, body);
}

bool ArchiveReader::next(cluster::NodeId& node, NodeLog& log,
                         std::string& body) {
  if (done_) return false;
  const std::uint64_t frame_offset = stream_offset(*is_);
  const std::uint64_t index = read_varint(*is_);
  if (index == kEndFrame) {
    const std::uint64_t declared = read_varint(*is_);
    if (declared != frames_)
      throw DecodeError("frame count mismatch (declared " +
                            std::to_string(declared) + ", read " +
                            std::to_string(frames_) + ")",
                        frame_offset);
    done_ = true;
    return false;
  }
  if (index > kEndFrame)
    throw DecodeError("node index out of range", frame_offset);
  node = cluster::node_from_index(static_cast<int>(index));
  const std::uint64_t size = read_varint(*is_);
  const std::uint64_t body_offset = stream_offset(*is_);
  read_exact(*is_, size, body);
  std::size_t pos = 0;
  try {
    log = decode_node_log(body, pos, node);
  } catch (const DecodeError& e) {
    // Re-anchor the body-relative offset to the stream position.
    throw DecodeError("node frame for " + cluster::node_name(node) + ": " +
                          e.detail(),
                      body_offset + e.byte_offset());
  }
  if (pos != body.size())
    throw DecodeError("node frame body size mismatch", body_offset + pos);
  ++frames_;
  return true;
}

void ArchiveReader::drain(RecordSink& sink) {
  sink.begin_campaign(window_);
  cluster::NodeId node;
  NodeLog log;
  std::string body;
  const auto& kernels = kernels::active_encode_kernels();
  while (next(node, log, body)) {
    sink.begin_node(node);
    // Bulk delivery: record-oriented sinks replay (same stream as before);
    // byte-oriented sinks get the frame body just read, as pre-encoded
    // bytes (what re-encoding the decoded log would reproduce).
    EncodedNodeLog enc(node, log, body, kernels, nullptr,
                       /*pre_encoded=*/true);
    sink.on_node_log(enc);
    sink.end_node(node);
  }
  sink.end_campaign();
}

void save_archive_stream(const CampaignArchive& archive, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  UNP_REQUIRE(os.good());
  ArchiveWriter writer(os);
  writer.begin_campaign(archive.window());
  std::string scratch;
  EncodeArena arena;
  const auto& kernels = kernels::active_encode_kernels();
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    writer.begin_node(node);
    EncodedNodeLog enc(node, archive.log(node), scratch, kernels, &arena);
    writer.on_node_log(enc);
    writer.end_node(node);
  }
  writer.finish();
  UNP_REQUIRE(os.good());
}

CampaignArchive load_archive_stream(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  UNP_REQUIRE(is.good());
  ArchiveReader reader(is);
  CampaignArchive archive(reader.window());
  // Decoded logs are moved in whole; replaying record-by-record through the
  // sink interface would double the work.
  cluster::NodeId node{};
  NodeLog log;
  while (reader.next(node, log)) archive.log(node) = std::move(log);
  return archive;
}

}  // namespace unp::telemetry
