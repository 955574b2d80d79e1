#include "telemetry/binary_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>

#include "common/require.hpp"
#include "telemetry/kernels/kernels.hpp"

namespace unp::telemetry {

namespace {

constexpr char kMagic[4] = {'U', 'N', 'P', 'A'};
constexpr std::uint8_t kVersion = 1;

double get_temp(std::string_view in, std::size_t& pos) {
  if (pos >= in.size()) throw DecodeError("truncated temperature flag", pos);
  const char flag = in[pos++];
  if (flag != 0 && flag != 1)
    throw DecodeError("bad temperature flag", pos - 1);
  return flag == 0 ? kNoTemperature : get_f64(in, pos);
}

/// Delta-encoded timestamp reader per section (the encode side runs through
/// the kernel-backed encode_node_log_into).
struct TimeDelta {
  TimePoint previous = 0;

  TimePoint get(std::string_view in, std::size_t& pos) {
    previous += zigzag_decode(get_varint(in, pos));
    return previous;
  }
};

}  // namespace

void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

void put_f64(std::string& out, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

double get_f64(std::string_view in, std::size_t& pos) {
  if (pos + 8 > in.size()) throw DecodeError("truncated f64", pos);
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                in[pos + static_cast<std::size_t>(i)]))
            << (8 * i);
  }
  pos += 8;
  double value;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

std::uint64_t get_varint(std::string_view in, std::size_t& pos) {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    if (pos >= in.size()) throw DecodeError("truncated varint", pos);
    if (shift >= 64) throw DecodeError("varint overflow (> 10 bytes)", pos);
    const auto byte = static_cast<unsigned char>(in[pos++]);
    // The 10th group holds only the top bit of a uint64; higher payload bits
    // would be shifted out silently, so reject them as overflow.
    if (shift == 63 && (byte & 0x7E) != 0)
      throw DecodeError("varint overflow (bits beyond 64)", pos - 1);
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

std::size_t node_log_encoded_bound(const NodeLog& log) noexcept {
  // Section counts: 4 varints.  START: time + bytes varints, temp flag+f64.
  // END: time varint, temp.  ALLOCFAIL: time varint.  RUN: six varints,
  // temp, period, count.
  return 4 * 10 + log.starts().size() * (10 + 10 + 9) +
         log.ends().size() * (10 + 9) + log.alloc_fails().size() * 10 +
         log.error_runs().size() * (6 * 10 + 9 + 10);
}

void encode_node_log_into(const NodeLog& log, std::string& out,
                          const kernels::EncodeKernels& kernels,
                          EncodeArena* arena) {
  // Pre-size to the record-count bound so no append below reallocates.
  out.reserve(out.size() + node_log_encoded_bound(log));

  kernels::VarintWriter w(out, kernels);
  const auto temp = [&w](double celsius) {
    if (!has_temperature(celsius)) {
      w.byte('\0');
      return;
    }
    w.byte('\1');
    w.f64(celsius);
  };

  {  // STARTs
    w.varint(log.starts().size());
    TimePoint previous = 0;
    for (const auto& r : log.starts()) {
      w.varint(zigzag_encode(r.time - previous));
      previous = r.time;
      w.varint(r.allocated_bytes);
      temp(r.temperature_c);
    }
  }
  {  // ENDs
    w.varint(log.ends().size());
    TimePoint previous = 0;
    for (const auto& r : log.ends()) {
      w.varint(zigzag_encode(r.time - previous));
      previous = r.time;
      temp(r.temperature_c);
    }
  }
  {  // ALLOCFAILs — a pure timestamp run, the one section the fused
     // zigzag-delta batch kernel can take whole.  Bytes match the writer
     // loop exactly (the batch kernel is the same delta chain from base 0).
    const auto& fails = log.alloc_fails();
    w.varint(fails.size());
    if (arena != nullptr && fails.size() >= 4) {
      auto& times = arena->scratch;
      times.clear();
      times.reserve(fails.size());
      for (const auto& r : fails)
        times.push_back(static_cast<std::uint64_t>(r.time));
      w.flush();  // order the buffered bytes before the direct append
      kernels.encode_zigzag_deltas(times.data(), times.size(), 0, out);
    } else {
      TimePoint previous = 0;
      for (const auto& r : fails) {
        w.varint(zigzag_encode(r.time - previous));
        previous = r.time;
      }
    }
  }
  {  // ERROR runs
    w.varint(log.error_runs().size());
    TimePoint previous = 0;
    for (const auto& run : log.error_runs()) {
      w.varint(zigzag_encode(run.first.time - previous));
      previous = run.first.time;
      w.varint(run.first.virtual_address);
      w.varint(run.first.expected);
      w.varint(run.first.actual);
      temp(run.first.temperature_c);
      w.varint(run.first.physical_page);
      w.varint(static_cast<std::uint64_t>(run.period_s));
      w.varint(run.count);
    }
  }
  // w flushes on scope exit.
}

std::string encode_node_log(const NodeLog& log) {
  std::string out;
  encode_node_log_into(log, out, kernels::active_encode_kernels());
  return out;
}

namespace {

/// Capacity hint for `n` records, clamped so a corrupt count cannot force a
/// huge allocation: every record costs at least one encoded byte.
std::size_t clamped_count(std::uint64_t n, std::string_view bytes,
                          std::size_t pos) {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(n, bytes.size() - pos));
}

/// The START, END and ALLOCFAIL sections of a node-log body, into `log`.
void decode_session_sections(std::string_view bytes, std::size_t& pos,
                             cluster::NodeId node, NodeLog& log) {
  {
    const std::uint64_t n = get_varint(bytes, pos);
    log.reserve_starts(clamped_count(n, bytes, pos));
    TimeDelta td;
    for (std::uint64_t i = 0; i < n; ++i) {
      StartRecord r;
      r.time = td.get(bytes, pos);
      r.node = node;
      r.allocated_bytes = get_varint(bytes, pos);
      r.temperature_c = get_temp(bytes, pos);
      log.add_start(r);
    }
  }
  {
    const std::uint64_t n = get_varint(bytes, pos);
    log.reserve_ends(clamped_count(n, bytes, pos));
    TimeDelta td;
    for (std::uint64_t i = 0; i < n; ++i) {
      EndRecord r;
      r.time = td.get(bytes, pos);
      r.node = node;
      r.temperature_c = get_temp(bytes, pos);
      log.add_end(r);
    }
  }
  {
    const std::uint64_t n = get_varint(bytes, pos);
    log.reserve_alloc_fails(clamped_count(n, bytes, pos));
    TimeDelta td;
    for (std::uint64_t i = 0; i < n; ++i) {
      log.add_alloc_fail({td.get(bytes, pos), node});
    }
  }
}

/// The `n` records of a RUNS section, each handed to `on_run`.  The one
/// run parser: decoding, scanning and building a scanned log all go
/// through it, so they accept and reject exactly the same bytes.
template <typename OnRun>
void decode_run_records(std::string_view bytes, std::size_t& pos,
                        cluster::NodeId node, std::uint64_t n, OnRun&& on_run) {
  TimeDelta td;
  for (std::uint64_t i = 0; i < n; ++i) {
    ErrorRun run;
    run.first.time = td.get(bytes, pos);
    run.first.node = node;
    run.first.virtual_address = get_varint(bytes, pos);
    run.first.expected = static_cast<Word>(get_varint(bytes, pos));
    run.first.actual = static_cast<Word>(get_varint(bytes, pos));
    run.first.temperature_c = get_temp(bytes, pos);
    run.first.physical_page = get_varint(bytes, pos);
    run.period_s = static_cast<std::int64_t>(get_varint(bytes, pos));
    run.count = get_varint(bytes, pos);
    if (run.count < 1) throw DecodeError("error run with zero count", pos);
    on_run(run);
  }
}

}  // namespace

NodeLog decode_node_log(const std::string& bytes, std::size_t& pos,
                        cluster::NodeId node) {
  NodeLog log;
  decode_session_sections(bytes, pos, node, log);
  const std::uint64_t n = get_varint(bytes, pos);
  log.reserve_error_runs(clamped_count(n, bytes, pos));
  decode_run_records(bytes, pos, node, n,
                     [&log](const ErrorRun& run) { log.add_error_run(run); });
  return log;
}

NodeLogScan scan_node_log(std::string_view bytes, std::size_t& pos,
                          cluster::NodeId node) {
  NodeLogScan scan;
  decode_session_sections(bytes, pos, node, scan.log);
  scan.runs = get_varint(bytes, pos);
  scan.runs_pos = pos;
  decode_run_records(bytes, pos, node, scan.runs,
                     [&scan](const ErrorRun& run) { scan.raw += run.count; });
  return scan;
}

void build_scanned_runs(std::string_view bytes, cluster::NodeId node,
                        NodeLogScan& scan) {
  std::size_t pos = scan.runs_pos;
  scan.log.reserve_error_runs(static_cast<std::size_t>(scan.runs));
  decode_run_records(bytes, pos, node, scan.runs, [&scan](const ErrorRun& run) {
    scan.log.add_error_run(run);
  });
}

std::string encode_archive(const CampaignArchive& archive) {
  std::string out(kMagic, sizeof kMagic);
  out.push_back(static_cast<char>(kVersion));
  put_varint(out, zigzag_encode(archive.window().start));
  put_varint(out, zigzag_encode(archive.window().end));

  // Only non-empty node logs are stored.
  std::vector<int> nodes;
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const NodeLog& log = archive.log(cluster::node_from_index(i));
    if (!log.starts().empty() || !log.ends().empty() ||
        !log.alloc_fails().empty() || !log.error_runs().empty()) {
      nodes.push_back(i);
    }
  }
  put_varint(out, nodes.size());
  const auto& kernels = kernels::active_encode_kernels();
  std::string body;
  EncodeArena arena;
  for (const int i : nodes) {
    put_varint(out, static_cast<std::uint64_t>(i));
    body.clear();
    encode_node_log_into(archive.log(cluster::node_from_index(i)), body,
                         kernels, &arena);
    put_varint(out, body.size());
    out += body;
  }
  return out;
}

CampaignArchive decode_archive(const std::string& bytes) {
  if (bytes.size() <= 5) throw DecodeError("truncated archive header", bytes.size());
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
    throw DecodeError("bad UNPA magic", 0);
  if (static_cast<std::uint8_t>(bytes[4]) != kVersion)
    throw DecodeError("unsupported UNPA version", 4);

  std::size_t pos = 5;
  CampaignWindow window;
  window.start = zigzag_decode(get_varint(bytes, pos));
  window.end = zigzag_decode(get_varint(bytes, pos));
  CampaignArchive archive(window);

  const std::uint64_t nodes = get_varint(bytes, pos);
  for (std::uint64_t n = 0; n < nodes; ++n) {
    const std::size_t frame_pos = pos;
    const std::uint64_t index = get_varint(bytes, pos);
    if (index >= static_cast<std::uint64_t>(cluster::kStudyNodeSlots))
      throw DecodeError("node index out of range", frame_pos);
    const std::uint64_t size = get_varint(bytes, pos);
    if (pos + size > bytes.size())
      throw DecodeError("truncated node log body", pos);
    std::size_t body_pos = pos;
    const cluster::NodeId node = cluster::node_from_index(static_cast<int>(index));
    archive.log(node) = decode_node_log(bytes, body_pos, node);
    if (body_pos != pos + size)
      throw DecodeError("node log body size mismatch", body_pos);
    pos += size;
  }
  if (pos != bytes.size())
    throw DecodeError("trailing bytes after archive", pos);
  return archive;
}

void save_archive(const CampaignArchive& archive, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  UNP_REQUIRE(os.good());
  const std::string bytes = encode_archive(archive);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  UNP_REQUIRE(os.good());
}

CampaignArchive load_archive(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  UNP_REQUIRE(is.good());
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  return decode_archive(bytes);
}

}  // namespace unp::telemetry
