#include "analysis/streaming_extractor.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "telemetry/archive.hpp"

namespace unp::analysis {

StreamingExtractor::StreamingExtractor(ExtractionConfig config)
    : config_(config),
      pending_(static_cast<std::size_t>(cluster::kStudyNodeSlots)),
      collapsed_(static_cast<std::size_t>(cluster::kStudyNodeSlots)),
      raw_per_node_(static_cast<std::size_t>(cluster::kStudyNodeSlots), 0) {}

void StreamingExtractor::begin_campaign(const CampaignWindow&) {
  // Reset so a partially-fed extractor (torn cache replay that fell back to
  // a fresh simulation pass) starts clean when the stream re-opens.
  pending_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots), {});
  collapsed_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots), {});
  raw_per_node_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots), 0);
  raw_total_ = 0;
  sessions_ = 0;
  finished_ = false;
}

void StreamingExtractor::on_start(const telemetry::StartRecord&) { ++sessions_; }

void StreamingExtractor::on_end(const telemetry::EndRecord&) {}

void StreamingExtractor::on_alloc_fail(const telemetry::AllocFailRecord&) {}

void StreamingExtractor::on_error_run(const telemetry::ErrorRun& r) {
  UNP_REQUIRE(!finished_);
  const auto index =
      static_cast<std::size_t>(cluster::node_index(r.first.node));
  pending_[index].add_error_run(r);
  raw_per_node_[index] += r.count;
  raw_total_ += r.count;
}

void StreamingExtractor::end_node(cluster::NodeId node) {
  const auto index = static_cast<std::size_t>(cluster::node_index(node));
  if (!defers(index)) collapse_pending(index);
}

void StreamingExtractor::on_node_log(telemetry::EncodedNodeLog& enc) {
  UNP_REQUIRE(!finished_);
  const telemetry::NodeLog& log = enc.log();
  const auto index = static_cast<std::size_t>(cluster::node_index(enc.node()));
  const std::uint64_t raw = log.raw_error_count();
  sessions_ += log.starts().size();
  raw_per_node_[index] += raw;
  raw_total_ += raw;
  if (log.error_runs().empty()) return;

  // end_node collapses (or defers) whatever is pending; the producer's log
  // need not outlive this call, so those cases take one bulk copy.  Only a
  // node with no buffered runs, no observer and no deferral collapses here,
  // straight from the producer's log.
  if (observer_ || defers(index) || !pending_[index].error_runs().empty()) {
    pending_[index].add_error_runs(log.error_runs());
    return;
  }
  collapse_into(index, log);
}

bool StreamingExtractor::defers(std::size_t index) const noexcept {
  return !observer_ && raw_per_node_[index] >= config_.pathological_min_raw;
}

std::size_t StreamingExtractor::pending_runs() const noexcept {
  std::size_t runs = 0;
  for (const auto& log : pending_) runs += log.error_runs().size();
  return runs;
}

void StreamingExtractor::collapse_pending(std::size_t index) {
  telemetry::NodeLog& log = pending_[index];
  if (log.error_runs().empty()) return;
  collapse_into(index, log);
  log = telemetry::NodeLog{};  // free the raw runs mid-stream
}

void StreamingExtractor::collapse_into(std::size_t index,
                                       const telemetry::NodeLog& log) {
  const cluster::NodeId node = cluster::node_from_index(static_cast<int>(index));
  auto faults = collapse_node_log(node, log, config_.merge_window_s);
  if (observer_) observer_(node, faults);
  auto& bucket = collapsed_[index];
  bucket.insert(bucket.end(), faults.begin(), faults.end());
}

ExtractionResult StreamingExtractor::finish() {
  UNP_REQUIRE(!finished_);
  finished_ = true;

  // Runs still pending belong to deferred nodes or were streamed without an
  // end_node frame (e.g. ad-hoc use).  The observer must see every node, so
  // with one set they all collapse now; without one, each collapses below
  // only if the filter keeps its node.
  if (observer_) {
    for (std::size_t i = 0; i < pending_.size(); ++i) collapse_pending(i);
  }

  // Mirror extract_faults exactly: node-index order, campaign-wide
  // pathological filter, then the global deterministic sort.
  ExtractionResult result;
  result.total_raw_logs = raw_total_;
  for (std::size_t i = 0; i < collapsed_.size(); ++i) {
    const std::uint64_t raw = raw_per_node_[i];
    if (raw == 0) continue;

    const bool pathological =
        raw >= config_.pathological_min_raw &&
        static_cast<double>(raw) >
            config_.pathological_raw_fraction *
                static_cast<double>(result.total_raw_logs);
    if (pathological) {
      result.removed_nodes.push_back(
          cluster::node_from_index(static_cast<int>(i)));
      result.removed_raw_logs += raw;
      pending_[i] = telemetry::NodeLog{};  // dropped uncollapsed
      continue;
    }
    collapse_pending(i);
    result.faults.insert(result.faults.end(), collapsed_[i].begin(),
                         collapsed_[i].end());
  }

  std::sort(result.faults.begin(), result.faults.end(),
            [](const FaultRecord& a, const FaultRecord& b) {
              if (a.first_seen != b.first_seen) return a.first_seen < b.first_seen;
              const int na = cluster::node_index(a.node);
              const int nb = cluster::node_index(b.node);
              if (na != nb) return na < nb;
              return a.virtual_address < b.virtual_address;
            });
  return result;
}

}  // namespace unp::analysis
