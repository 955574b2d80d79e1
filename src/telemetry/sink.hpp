// Streaming record consumers.
//
// The campaign is inherently a stream: 923 node timelines, each producing
// START/END/ALLOC-FAIL/ERROR records in time order, flowing into whatever
// wants them — the in-memory CampaignArchive, an on-disk spill file, or an
// incremental analysis.  RecordSink is that consumer interface; producers
// (sim::run_campaign, ArchiveReader) push records through it node by node
// so no stage needs the whole 13-month archive resident.
//
// Protocol (per producer pass):
//
//   begin_campaign(window)
//   for each node in ascending node_index order:
//     begin_node(id)
//     on_start* on_end* on_alloc_fail* on_error_run*   (each class in time order)
//     end_node(id)
//   end_campaign()
//
// Producers guarantee deterministic ordering: nodes ascend by index and each
// record class is emitted in time order, so any sink sees a bit-reproducible
// stream for a given campaign seed regardless of producer thread count.
//
// Two further guarantees matter to stateful consumers (the streaming
// extractor, the policy engine in src/policy):
//
//   - exactly one begin_node/end_node frame per monitored node per pass —
//     a node's whole timeline arrives contiguously, never interleaved with
//     another node's, so per-node controller state can be finalized at
//     end_node();
//   - the stream is *node-ordered*, not globally time-ordered: records of a
//     later node may predate records of an earlier one.  Controllers that
//     need fleet-wide time order (e.g. cross-node day accounting) must
//     either keep per-node clocks or defer the merge to end_campaign().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/civil_time.hpp"
#include "telemetry/record.hpp"

namespace unp::telemetry {

class NodeLog;
class RecordSink;
class ReplayedFrame;

namespace kernels {
struct EncodeKernels;
}  // namespace kernels

/// Reusable scratch for the encode hot path: gather buffers the batch
/// kernels read from.  One arena per producer thread; capacity persists
/// across node logs so steady-state encoding allocates nothing.
struct EncodeArena {
  std::vector<std::uint64_t> scratch;
};

/// A node's whole log plus its UNPA body encoding, each produced on demand.
///
/// The bulk streaming path hands one of these per node to sinks instead of
/// replaying records one virtual call at a time.  It comes in two forms:
///
///   - from a producer's NodeLog (the campaign driver, tests): `log()` is
///     that log; `bytes()` encodes it on first call, unless the producer
///     pre-encoded it in a worker;
///   - from a replayed frame (ArchiveReader / ShardMergeReader drain):
///     `bytes()` is the frame body as read; the session records are
///     decoded and the error runs validated and counted, but `log()` builds
///     the runs only on first call.
///
/// Either way a sink reads what it needs and pays for nothing else:
/// byte-oriented sinks (ArchiveWriter) splice `bytes()`; sinks that need
/// only counts and sessions (StreamingExtractor's deferred node,
/// ScanProfileSink) read `raw_error_count()`, `error_run_count()` and
/// `sessions()`, so a replayed node whose runs nobody reads is never built;
/// record-oriented sinks (CampaignArchive, the default on_node_log) read
/// `log()` and see exactly the records of the frame.  Valid only for the
/// duration of the on_node_log call; `share_bytes()` outlives it.
class EncodedNodeLog {
 public:
  /// `scratch` is caller-owned storage for the encoded body (an arena slot
  /// reused across nodes); `pre_encoded` asserts it already holds exactly
  /// the body for `log` under `kernels`.
  EncodedNodeLog(cluster::NodeId node, const NodeLog& log, std::string& scratch,
                 const kernels::EncodeKernels& kernels,
                 EncodeArena* arena = nullptr, bool pre_encoded = false) noexcept
      : node_(node),
        log_(&log),
        scratch_(&scratch),
        kernels_(&kernels),
        arena_(arena),
        encoded_(pre_encoded) {}

  /// A replayed frame; `frame` builds its runs on the first log() call.
  explicit EncodedNodeLog(ReplayedFrame& frame) noexcept;

  [[nodiscard]] cluster::NodeId node() const noexcept { return node_; }

  /// The whole log, error runs included (built now for a replayed frame
  /// whose runs nobody has read yet).
  [[nodiscard]] const NodeLog& log() const;

  /// The node's START, END and ALLOC-FAIL records.  The error runs are
  /// reached only through log(), and their counts through
  /// error_run_count() / raw_error_count().
  [[nodiscard]] SessionRecords sessions() const noexcept;

  /// Error runs in the log, and the raw ERROR lines they stand for.
  [[nodiscard]] std::size_t error_run_count() const noexcept;
  [[nodiscard]] std::uint64_t raw_error_count() const noexcept;

  /// True once the error runs exist in memory: always for a producer's
  /// log, after the first log() call for a replayed frame.
  [[nodiscard]] bool runs_built() const noexcept;

  /// The UNPA node-log body (encode_node_log bytes).  Encodes on first call,
  /// then returns the cached bytes.
  [[nodiscard]] const std::string& bytes();

  /// The body with ownership, for a sink that keeps it past this call: a
  /// replayed frame shares the bytes it read; a producer's log is copied.
  [[nodiscard]] std::shared_ptr<const std::string> share_bytes();

  /// True when the log holds no records (its encoded body would still be the
  /// four zero section counts, but writers skip the frame entirely).
  [[nodiscard]] bool empty() const noexcept;

 private:
  cluster::NodeId node_;
  const NodeLog* log_ = nullptr;
  std::string* scratch_ = nullptr;
  const kernels::EncodeKernels* kernels_ = nullptr;
  EncodeArena* arena_ = nullptr;
  bool encoded_ = false;
  ReplayedFrame* frame_ = nullptr;  ///< set for a replayed frame only
};

/// Consumer of a campaign record stream.
class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// Stream framing; default no-ops so simple sinks only handle records.
  virtual void begin_campaign(const CampaignWindow& /*window*/) {}
  virtual void begin_node(cluster::NodeId /*node*/) {}
  virtual void end_node(cluster::NodeId /*node*/) {}
  virtual void end_campaign() {}

  virtual void on_start(const StartRecord& r) = 0;
  virtual void on_end(const EndRecord& r) = 0;
  virtual void on_alloc_fail(const AllocFailRecord& r) = 0;
  virtual void on_error_run(const ErrorRun& r) = 0;

  /// Bulk path: the producer may deliver a node's whole log between
  /// begin_node and end_node as one call instead of per-record ones.  The
  /// default replays the log through the per-record interface, so existing
  /// sinks see an identical stream; byte-oriented sinks override this (and
  /// wants_encoded_node_log) to consume the encoded body directly.
  virtual void on_node_log(EncodedNodeLog& log);

  /// True when this sink consumes `bytes()` of bulk node logs — a hint that
  /// lets producers pre-encode bodies in parallel workers.
  [[nodiscard]] virtual bool wants_encoded_node_log() const { return false; }
};

/// Broadcast one stream to several sinks (archive + spill file + extractor
/// in a single producer pass).  Does not own the sinks.
class FanOutSink final : public RecordSink {
 public:
  FanOutSink() = default;
  void add(RecordSink& sink) { sinks_.push_back(&sink); }

  void begin_campaign(const CampaignWindow& window) override {
    for (auto* s : sinks_) s->begin_campaign(window);
  }
  void begin_node(cluster::NodeId node) override {
    for (auto* s : sinks_) s->begin_node(node);
  }
  void end_node(cluster::NodeId node) override {
    for (auto* s : sinks_) s->end_node(node);
  }
  void end_campaign() override {
    for (auto* s : sinks_) s->end_campaign();
  }
  void on_start(const StartRecord& r) override {
    for (auto* s : sinks_) s->on_start(r);
  }
  void on_end(const EndRecord& r) override {
    for (auto* s : sinks_) s->on_end(r);
  }
  void on_alloc_fail(const AllocFailRecord& r) override {
    for (auto* s : sinks_) s->on_alloc_fail(r);
  }
  void on_error_run(const ErrorRun& r) override {
    for (auto* s : sinks_) s->on_error_run(r);
  }
  void on_node_log(EncodedNodeLog& log) override {
    for (auto* s : sinks_) s->on_node_log(log);
  }
  [[nodiscard]] bool wants_encoded_node_log() const override {
    for (const auto* s : sinks_)
      if (s->wants_encoded_node_log()) return true;
    return false;
  }

 private:
  std::vector<RecordSink*> sinks_;
};

/// Push every record of `log` through `sink` in the canonical class order
/// (starts, ends, alloc-fails, error runs; each in stored order).  Does NOT
/// emit begin_node/end_node — the caller owns the framing.
void replay_node_log(const NodeLog& log, RecordSink& sink);

}  // namespace unp::telemetry
