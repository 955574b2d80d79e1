// Streaming on-disk archive format.
//
// binary_codec.hpp serializes a fully materialized CampaignArchive in one
// shot; this header is the streaming counterpart.  ArchiveWriter is a
// RecordSink that spills each node's block to an ostream the moment the
// node's frame closes, so a 13-month campaign can be written while it is
// being simulated, with only one node's records buffered at a time.
// ArchiveReader walks the stream node by node, either handing out NodeLogs
// or pushing records into another RecordSink — which is how benches reload
// a cached campaign without re-simulating and how analyses consume spilled
// telemetry without a resident archive.
//
// Replay (drain) is lazy.  Each frame is scanned: its START/END/ALLOCFAIL
// sections decoded, its RUNS section validated and counted with
// decode_node_log's own checks, and the frame handed to the sink as an
// EncodedNodeLog over the body bytes as read.  A sink that reads only
// counts, sessions or bytes (the streaming extractor's deferred node, the
// scan profile, a writer) never makes the runs exist; one that reads log()
// builds them then.  A frame that fails to read or scan throws where it
// stands, after every frame before it and before any after it, with the
// error a full decode (next()) gives.
//
// Format (little-endian, varint = LEB128, reusing the binary_codec record
// encoding):
//
//   stream := magic "UNPS" u8 version
//             varint zigzag(window.start) varint zigzag(window.end)
//             node_frame* end_frame
//   node_frame := varint node_index        (< kStudyNodeSlots, ascending)
//                 varint body_size body    (body = encode_node_log)
//   end_frame  := varint kStudyNodeSlots varint frame_count
//
// The trailing frame count lets the reader reject streams truncated at a
// frame boundary (mid-frame truncation already fails the body decode).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "telemetry/archive.hpp"
#include "telemetry/binary_codec.hpp"
#include "telemetry/sink.hpp"

namespace unp::telemetry {

/// RecordSink spilling the stream to disk as framed binary node blocks.
/// Drive it through the sink protocol (begin_campaign .. end_campaign); the
/// stream is complete once end_campaign (or finish()) has run.
class ArchiveWriter final : public RecordSink {
 public:
  /// Writes to `os` (binary mode), starting at its current position.
  /// `encode` selects the encode kernel set (byte-identical output across
  /// sets); defaults to the process-wide active set.
  explicit ArchiveWriter(std::ostream& os,
                         const kernels::EncodeKernels* encode = nullptr);

  void begin_campaign(const CampaignWindow& window) override;
  void begin_node(cluster::NodeId node) override;
  void on_start(const StartRecord& r) override;
  void on_end(const EndRecord& r) override;
  void on_alloc_fail(const AllocFailRecord& r) override;
  void on_error_run(const ErrorRun& r) override;
  void end_node(cluster::NodeId node) override;
  void end_campaign() override { finish(); }

  /// Bulk path: the frame body is spliced from the already-encoded node log
  /// (encoded at most once per node, possibly in a producer worker thread),
  /// skipping the per-record collection into pending_ entirely.
  void on_node_log(EncodedNodeLog& log) override;
  [[nodiscard]] bool wants_encoded_node_log() const override { return true; }

  /// Write the end frame.  Idempotent; called by end_campaign.
  void finish();

  [[nodiscard]] std::uint64_t frames_written() const noexcept { return frames_; }

 private:
  std::ostream* os_;
  const kernels::EncodeKernels* encode_;
  NodeLog pending_;      ///< records of the currently open node frame
  std::string body_;     ///< reused frame-body encode buffer
  EncodeArena arena_;    ///< reused gather scratch for batch kernels
  bool node_open_ = false;
  bool bulk_ = false;    ///< current frame arrived via on_node_log
  bool header_written_ = false;
  bool finished_ = false;
  std::uint64_t frames_ = 0;
};

/// A node frame as read off a stream, before its body is decoded.
struct RawFrame {
  cluster::NodeId node{};
  std::shared_ptr<std::string> body;
  std::uint64_t body_offset = 0;  ///< source offset of the body's first byte
  std::string context;  ///< prefix of this frame's decode errors ("shard 2: ")
};

/// A frame replayed from a stream and scanned (scan_node_log): its body
/// bytes, shared so a sink can keep them without a copy; its session
/// records; its error runs validated and counted, built on first log().
class ReplayedFrame {
 public:
  ReplayedFrame(cluster::NodeId node, std::shared_ptr<const std::string> body,
                NodeLogScan scan) noexcept
      : node_(node), body_(std::move(body)), scan_(std::move(scan)) {}

  [[nodiscard]] cluster::NodeId node() const noexcept { return node_; }
  [[nodiscard]] const std::shared_ptr<const std::string>& body() const noexcept {
    return body_;
  }
  [[nodiscard]] SessionRecords sessions() const noexcept {
    return scan_.log.sessions();
  }
  [[nodiscard]] std::size_t error_run_count() const noexcept {
    return static_cast<std::size_t>(scan_.runs);
  }
  [[nodiscard]] std::uint64_t raw_error_count() const noexcept {
    return scan_.raw;
  }
  [[nodiscard]] bool runs_built() const noexcept { return built_; }

  /// The whole log; the first call builds the error runs.
  [[nodiscard]] const NodeLog& log();

 private:
  cluster::NodeId node_;
  std::shared_ptr<const std::string> body_;
  NodeLogScan scan_;
  bool built_ = false;
};

/// Decode `raw` in full (decode_node_log).  Its DecodeError names the frame
/// and carries the source offset: "<context>node frame for BB-S: <detail>"
/// at body_offset + the body offset, or "<context>node frame body size
/// mismatch" when the body has bytes past its log.
[[nodiscard]] NodeLog decode_frame(const RawFrame& raw);

/// The one drain loop of ArchiveReader and ShardMergeReader: push the
/// frames `read` yields (false at the end; it may throw) through `sink`
/// with full framing, each as one bulk on_node_log over its scanned frame.
/// A frame fails with the error decode_frame would throw.
void drain_frames(const CampaignWindow& window,
                  const std::function<bool(RawFrame&)>& read,
                  RecordSink& sink);

/// Stream offset for decode-error context; 0 when the stream cannot tell
/// (already failed, or not seekable).
[[nodiscard]] std::uint64_t stream_offset(std::istream& is);

/// A LEB128 varint off a stream; DecodeError (at the varint's first byte)
/// on truncation or overflow, as get_varint.
[[nodiscard]] std::uint64_t read_stream_varint(std::istream& is);

/// Exactly `size` bytes off a stream into `out`.  `out` grows as bytes
/// arrive, so a corrupt size on a short stream fails as a truncated block
/// without first allocating what it declares.
void read_stream_block(std::istream& is, std::uint64_t size, std::string& out);

/// Incremental reader over a stream produced by ArchiveWriter.
class ArchiveReader {
 public:
  /// Parses the stream header from `is` (binary mode, current position).
  /// Throws telemetry::DecodeError (a ContractViolation carrying the byte
  /// offset) on bad magic/version.
  explicit ArchiveReader(std::istream& is);

  [[nodiscard]] const CampaignWindow& window() const noexcept { return window_; }

  /// Read and fully decode the next node frame into (node, log).  Returns
  /// false once the end frame is reached (after validating the frame
  /// count).  Throws telemetry::DecodeError with byte-offset context on
  /// corrupt or truncated input.
  [[nodiscard]] bool next(cluster::NodeId& node, NodeLog& log);

  /// Push the remaining stream through `sink` with full framing
  /// (begin_campaign .. end_campaign), through drain_frames: each node
  /// arrives as one bulk on_node_log over its scanned frame, whose bytes()
  /// are the body as read (a body this codec wrote re-encodes to itself;
  /// a hand-made one with redundant varints passes through as read) and
  /// whose runs are built only if a sink reads log().  Errors match
  /// next()'s.
  void drain(RecordSink& sink);

  [[nodiscard]] std::uint64_t frames_read() const noexcept { return frames_; }

 private:
  /// Read the next frame's body; false at the (validated) end frame.
  bool read_frame(RawFrame& raw);

  std::istream* is_;
  CampaignWindow window_;
  std::uint64_t frames_ = 0;
  bool done_ = false;
};

/// Spill a materialized archive through ArchiveWriter (binary file mode).
void save_archive_stream(const CampaignArchive& archive, const std::string& path);

/// Load a whole stream file into a materialized archive.
[[nodiscard]] CampaignArchive load_archive_stream(const std::string& path);

}  // namespace unp::telemetry
