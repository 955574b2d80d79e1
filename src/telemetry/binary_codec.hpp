// Compact binary serialization of telemetry.
//
// The text codec is the human-facing format; a 13-month campaign archive
// serialized as text runs to hundreds of MB.  The binary codec stores the
// same records with varint + delta encoding (timestamps are monotone within
// a record class, addresses cluster) so whole-campaign archives round-trip
// through a few MB and load in milliseconds.
//
// Format (little-endian, varint = LEB128):
//
//   file   := magic "UNPA" u8 version payload
//   payload:= varint node_count { varint node_index node_log } *
//   node_log := section(START) section(END) section(ALLOCFAIL) section(RUNS)
//   section := varint count { record } *
//
// Timestamps are delta-encoded within each section; temperatures are raw
// f64 bits (kNoTemperature encodes the missing reading, as in the structs).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/require.hpp"
#include "telemetry/archive.hpp"

namespace unp::telemetry {

/// Typed decode failure carrying the byte offset where the input stopped
/// making sense.  Derives from ContractViolation so existing recovery sites
/// (the bench cache's fall-back-to-simulation path) keep working, while
/// front ends can report "corrupt input at byte N" instead of a bare
/// contract trace.  `detail()` is the message without the offset suffix.
class DecodeError : public ContractViolation {
 public:
  DecodeError(const std::string& detail, std::uint64_t byte_offset)
      : ContractViolation(detail + " at byte " + std::to_string(byte_offset)),
        detail_(detail),
        byte_offset_(byte_offset) {}

  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }
  [[nodiscard]] std::uint64_t byte_offset() const noexcept { return byte_offset_; }

 private:
  std::string detail_;
  std::uint64_t byte_offset_;
};

/// Append a LEB128 varint to `out` (exposed for tests).
void put_varint(std::string& out, std::uint64_t value);

/// Read a LEB128 varint; throws DecodeError on truncation, on an encoding
/// longer than 10 bytes, and on a 10-byte encoding whose final group carries
/// bits beyond the 64th (a silent-overflow input no canonical encoder emits).
/// Takes a view so decoders can run directly over mmap-backed store bytes.
[[nodiscard]] std::uint64_t get_varint(std::string_view in, std::size_t& pos);

/// Raw little-endian f64 bits (used by derived formats such as the bench
/// campaign cache that need to serialize doubles exactly).
void put_f64(std::string& out, double value);
[[nodiscard]] double get_f64(std::string_view in, std::size_t& pos);

/// ZigZag signed mapping (for timestamp deltas which may regress across
/// merged sources).
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

namespace kernels {
struct EncodeKernels;
}  // namespace kernels

/// Tight upper bound on encode_node_log's output size, from record counts
/// alone (every field is at most a 10-byte varint or a 9-byte temperature).
/// Buffers reserved to this bound never reallocate mid-encode — asserted by
/// the encode growth counter in debug tests.
[[nodiscard]] std::size_t node_log_encoded_bound(const NodeLog& log) noexcept;

/// Serialize one node log (without the node index framing).
[[nodiscard]] std::string encode_node_log(const NodeLog& log);

/// Append encode_node_log's bytes to `out` using an explicit kernel set —
/// the hot-path form: the caller reuses `out` (and optionally `arena`, which
/// enables the batched ALLOCFAIL timestamp encode) across nodes.  Output is
/// byte-identical for every kernel set.
void encode_node_log_into(const NodeLog& log, std::string& out,
                          const kernels::EncodeKernels& kernels,
                          EncodeArena* arena = nullptr);

/// Inverse of encode_node_log.
[[nodiscard]] NodeLog decode_node_log(const std::string& bytes, std::size_t& pos,
                                      cluster::NodeId node);

/// A node-log body decoded without its error runs: the START, END and
/// ALLOCFAIL sections are in `log`, the RUNS section is validated and
/// counted.  build_scanned_runs appends the runs later, from the same bytes.
struct NodeLogScan {
  NodeLog log;               ///< session records; error runs once built
  std::size_t runs_pos = 0;  ///< body offset of the first run record
  std::uint64_t runs = 0;    ///< error runs in the RUNS section
  std::uint64_t raw = 0;     ///< raw ERROR lines (their summed counts)
};

/// decode_node_log without building the error runs.  Every run record is
/// parsed with decode_node_log's own checks, so the two accept the same
/// bodies, throw the same DecodeError at the same offset, and leave `pos`
/// at the same place.
[[nodiscard]] NodeLogScan scan_node_log(std::string_view bytes,
                                        std::size_t& pos, cluster::NodeId node);

/// Append the error runs of a body `scan` was taken of (scan_node_log
/// validated them, so this cannot fail) to `scan.log`; call once.
void build_scanned_runs(std::string_view bytes, cluster::NodeId node,
                        NodeLogScan& scan);

/// Serialize a whole campaign archive.
[[nodiscard]] std::string encode_archive(const CampaignArchive& archive);

/// Parse an encoded archive; throws DecodeError on malformed input.
[[nodiscard]] CampaignArchive decode_archive(const std::string& bytes);

/// Convenience file I/O (binary mode).  Throws ContractViolation on I/O or
/// format errors.
void save_archive(const CampaignArchive& archive, const std::string& path);
[[nodiscard]] CampaignArchive load_archive(const std::string& path);

}  // namespace unp::telemetry
