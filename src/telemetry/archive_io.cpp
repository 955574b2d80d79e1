#include "telemetry/archive_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/require.hpp"
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

DecodeError anchored(const RawFrame& raw, const DecodeError& e) {
  return DecodeError(raw.context + "node frame for " +
                         cluster::node_name(raw.node) + ": " + e.detail(),
                     raw.body_offset + e.byte_offset());
}

void require_whole_body(const RawFrame& raw, std::size_t pos) {
  if (pos != raw.body->size())
    throw DecodeError(raw.context + "node frame body size mismatch",
                      raw.body_offset + pos);
}

/// Scan `raw` (scan_node_log), throwing what decode_frame would throw.
ReplayedFrame scan_frame(RawFrame raw) {
  std::size_t pos = 0;
  NodeLogScan scan;
  try {
    scan = scan_node_log(*raw.body, pos, raw.node);
  } catch (const DecodeError& e) {
    throw anchored(raw, e);
  }
  require_whole_body(raw, pos);
  return ReplayedFrame(raw.node, std::move(raw.body), std::move(scan));
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

std::uint64_t stream_offset(std::istream& is) {
  const std::streamoff off = is.rdstate() ? -1 : std::streamoff(is.tellg());
  return off < 0 ? 0 : static_cast<std::uint64_t>(off);
}

std::uint64_t read_stream_varint(std::istream& is) {
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

void read_stream_block(std::istream& is, std::uint64_t size, std::string& out) {
  // Reserve at most 64 MiB up front (address space, not memory, until
  // written), then read in chunks that double from 64 KiB: what is
  // zero-filled ahead of the read is never more than twice what arrived.
  constexpr std::uint64_t kUpFront = std::uint64_t{64} << 20;
  constexpr std::uint64_t kFirstChunk = std::uint64_t{64} << 10;
  const std::uint64_t start = stream_offset(is);
  out.clear();
  out.reserve(static_cast<std::size_t>(std::min(size, kUpFront)));
  std::uint64_t got = 0;
  while (got < size) {
    const std::uint64_t chunk =
        std::min(size - got, std::max(got, kFirstChunk));
    out.resize(static_cast<std::size_t>(got + chunk));
    is.read(out.data() + got, static_cast<std::streamsize>(chunk));
    got += static_cast<std::uint64_t>(is.gcount());
    if (static_cast<std::uint64_t>(is.gcount()) != chunk)
      throw DecodeError("truncated block (wanted " + std::to_string(size) +
                            " bytes, got " + std::to_string(got) + ")",
                        start);
  }
}

const NodeLog& ReplayedFrame::log() {
  if (!built_) {
    build_scanned_runs(*body_, node_, scan_);
    built_ = true;
  }
  return scan_.log;
}

NodeLog decode_frame(const RawFrame& raw) {
  std::size_t pos = 0;
  NodeLog log;
  try {
    log = decode_node_log(*raw.body, pos, raw.node);
  } catch (const DecodeError& e) {
    throw anchored(raw, e);
  }
  require_whole_body(raw, pos);
  return log;
}

void drain_frames(const CampaignWindow& window,
                  const std::function<bool(RawFrame&)>& read,
                  RecordSink& sink) {
  sink.begin_campaign(window);
  for (;;) {
    RawFrame raw;
    if (!read(raw)) break;
    ReplayedFrame frame = scan_frame(std::move(raw));
    EncodedNodeLog enc(frame);
    sink.begin_node(frame.node());
    sink.on_node_log(enc);
    sink.end_node(frame.node());
  }
  sink.end_campaign();
}

ArchiveReader::ArchiveReader(std::istream& is) : is_(&is) {
  std::string magic;
  read_stream_block(is, sizeof kStreamMagic, magic);
  if (std::memcmp(magic.data(), kStreamMagic, sizeof kStreamMagic) != 0)
    throw DecodeError("bad UNPS magic", 0);
  const int version = is.get();
  if (version != kStreamVersion)
    throw DecodeError("unsupported UNPS version " + std::to_string(version),
                      sizeof kStreamMagic);
  window_.start = zigzag_decode(read_stream_varint(is));
  window_.end = zigzag_decode(read_stream_varint(is));
}

bool ArchiveReader::read_frame(RawFrame& raw) {
  if (done_) return false;
  const std::uint64_t frame_offset = stream_offset(*is_);
  const std::uint64_t index = read_stream_varint(*is_);
  if (index == kEndFrame) {
    const std::uint64_t declared = read_stream_varint(*is_);
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
  raw.node = cluster::node_from_index(static_cast<int>(index));
  const std::uint64_t size = read_stream_varint(*is_);
  raw.body_offset = stream_offset(*is_);
  raw.body = std::make_shared<std::string>();
  read_stream_block(*is_, size, *raw.body);
  ++frames_;
  return true;
}

bool ArchiveReader::next(cluster::NodeId& node, NodeLog& log) {
  RawFrame raw;
  if (!read_frame(raw)) return false;
  log = decode_frame(raw);
  node = raw.node;
  return true;
}

void ArchiveReader::drain(RecordSink& sink) {
  drain_frames(
      window_, [this](RawFrame& raw) { return read_frame(raw); }, sink);
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
