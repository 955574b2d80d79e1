// Single-pass streaming fault extraction.
//
// extract_faults() needs the whole CampaignArchive materialized; this sink
// performs the same §II-C methodology incrementally while the records are
// being produced (by sim::run_campaign) or replayed (by ArchiveReader), so
// analyses can run without the raw archive ever being resident:
//
//   - START/END/ALLOC-FAIL records pass through with only counters updated;
//   - ERROR runs buffer per node (runs, not expanded raw lines, so the
//     working set stays at archive-codec scale);
//   - when a node's frame closes, its runs collapse to independent faults
//     via the exact collapse_node_log used by the batch path — the raw runs
//     are freed right there, mid-stream;
//   - a node delivered in bulk (on_node_log) is read in place: its runs
//     collapse straight from the producer's NodeLog (EncodedNodeLog::log()),
//     with no per-record replay and no copy;
//   - finish() applies the pathological-node filter (which requires the
//     campaign-wide raw total, hence it cannot happen earlier) and the final
//     deterministic sort.
//
// Deferred collapse: with no node observer set, a node whose raw count
// reaches pathological_min_raw — the only kind the filter can drop — is
// left uncollapsed until finish(), which collapses it only if the filter
// keeps the node.  A node delivered in bulk is kept as its encoded body
// (EncodedNodeLog::share_bytes(), 42 MB for the seed-42 pathological node
// against 145 MB of decoded runs) and decoded in finish() only if kept;
// one fed record by record keeps its buffered runs.  The deferral reads
// only the node's counts and bytes, so a node replayed from a UNPS stream
// (ArchiveReader::drain) is shared as the frame it was read in: its runs
// are never built, and its body is never copied.  Collapse is a pure
// function of the node's runs, so deferring it changes nothing but the
// work done.  With an observer set every node collapses at end_node, where
// the observer fires.
//
// The result is bit-identical to extract_faults on the same stream, which
// tests/analysis/streaming_extractor_test.cpp asserts over a full campaign.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/extraction.hpp"
#include "telemetry/sink.hpp"

namespace unp::analysis {

class StreamingExtractor final : public telemetry::RecordSink {
 public:
  explicit StreamingExtractor(ExtractionConfig config = ExtractionConfig{});

  // RecordSink.
  void begin_campaign(const CampaignWindow& window) override;
  void on_start(const telemetry::StartRecord& r) override;
  void on_end(const telemetry::EndRecord& r) override;
  void on_alloc_fail(const telemetry::AllocFailRecord& r) override;
  void on_error_run(const telemetry::ErrorRun& r) override;
  void end_node(cluster::NodeId node) override;
  /// Bulk path: reads the node's log in place instead of per record.
  void on_node_log(telemetry::EncodedNodeLog& log) override;

  /// Observer fired once per node, right after that node's buffered error
  /// runs collapse into independent faults (at end_node, or during finish()
  /// for nodes streamed without a closing frame).  The span covers the
  /// node's newly collapsed faults in collapse order and is only valid for
  /// the duration of the call.  Faults are delivered BEFORE the campaign-
  /// wide pathological filter — that filter needs the campaign raw total,
  /// which no online consumer can know mid-stream — so incremental
  /// consumers (the policy engine) see every node and reconcile against
  /// finish()'s removed_nodes afterwards.
  using NodeFaultObserver =
      std::function<void(cluster::NodeId, std::span<const FaultRecord>)>;
  void set_node_observer(NodeFaultObserver observer) {
    observer_ = std::move(observer);
  }

  /// Apply the pathological filter and final sort; the extractor is spent
  /// afterwards.  Call once after the stream completes.
  [[nodiscard]] ExtractionResult finish();

  /// Records seen so far (raw ERROR lines counted with runs expanded).
  [[nodiscard]] std::uint64_t raw_errors_seen() const noexcept { return raw_total_; }
  [[nodiscard]] std::uint64_t sessions_seen() const noexcept { return sessions_; }
  /// Error runs held uncollapsed: those of open frames plus those of
  /// deferred nodes awaiting finish() (counted as delivered, also when a
  /// node is held as its encoded body).
  [[nodiscard]] std::size_t pending_runs() const noexcept;

 private:
  /// True when end_node leaves node `index` uncollapsed for finish().
  [[nodiscard]] bool defers(std::size_t index) const noexcept;
  void collapse_pending(std::size_t index);
  void collapse_into(std::size_t index, const telemetry::NodeLog& log);

  ExtractionConfig config_;
  NodeFaultObserver observer_;
  /// Buffered error runs of nodes whose frame is still open, or whose
  /// collapse is deferred to finish().
  std::vector<telemetry::NodeLog> pending_;
  /// A deferred bulk node's encoded body (decoded in finish() if kept; its
  /// runs precede any in pending_) and the run count it holds.  Shared with
  /// the replayed frame it came from, copied from a producer's log.
  struct DeferredBody {
    std::shared_ptr<const std::string> bytes;
    std::size_t runs = 0;
  };
  std::vector<DeferredBody> deferred_;
  /// Collapsed per-node faults awaiting the campaign-wide filter.
  std::vector<std::vector<FaultRecord>> collapsed_;
  std::vector<std::uint64_t> raw_per_node_;
  std::uint64_t raw_total_ = 0;
  std::uint64_t sessions_ = 0;
  bool finished_ = false;
};

}  // namespace unp::analysis
