#include "telemetry/sink.hpp"

#include "telemetry/archive.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::telemetry {

void replay_node_log(const NodeLog& log, RecordSink& sink) {
  for (const auto& r : log.starts()) sink.on_start(r);
  for (const auto& r : log.ends()) sink.on_end(r);
  for (const auto& r : log.alloc_fails()) sink.on_alloc_fail(r);
  for (const auto& r : log.error_runs()) sink.on_error_run(r);
}

void RecordSink::on_node_log(EncodedNodeLog& log) {
  replay_node_log(log.log(), *this);
}

EncodedNodeLog::EncodedNodeLog(ReplayedFrame& frame) noexcept
    : node_(frame.node()), frame_(&frame) {}

const NodeLog& EncodedNodeLog::log() const {
  return frame_ != nullptr ? frame_->log() : *log_;
}

SessionRecords EncodedNodeLog::sessions() const noexcept {
  return frame_ != nullptr ? frame_->sessions() : log_->sessions();
}

std::size_t EncodedNodeLog::error_run_count() const noexcept {
  return frame_ != nullptr ? frame_->error_run_count()
                           : log_->error_runs().size();
}

std::uint64_t EncodedNodeLog::raw_error_count() const noexcept {
  return frame_ != nullptr ? frame_->raw_error_count()
                           : log_->raw_error_count();
}

bool EncodedNodeLog::runs_built() const noexcept {
  return frame_ == nullptr || frame_->runs_built();
}

const std::string& EncodedNodeLog::bytes() {
  if (frame_ != nullptr) return *frame_->body();
  if (!encoded_) {
    scratch_->clear();
    encode_node_log_into(*log_, *scratch_, *kernels_, arena_);
    encoded_ = true;
  }
  return *scratch_;
}

std::shared_ptr<const std::string> EncodedNodeLog::share_bytes() {
  if (frame_ != nullptr) return frame_->body();
  return std::make_shared<const std::string>(bytes());
}

bool EncodedNodeLog::empty() const noexcept {
  return sessions().empty() && error_run_count() == 0;
}

}  // namespace unp::telemetry
