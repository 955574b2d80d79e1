// In-memory span recorder for the benchmark's traced run.
//
// Every span carries a name, start and end (milliseconds since the recorder
// was created), the id of the span that caused it (-1 for a root) and a
// request id (-1 outside serving).  Spans stay in memory until the run
// ends; write_chrome() then dumps them as Chrome trace-event JSON and
// by_name() sums each name's total and self time, a span's self time being
// its duration minus the part of that interval its child spans cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace unp::perfbench {

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::int64_t request = -1;
};

class Spans {
 public:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }

  /// Record a finished span; returns its id.  Thread-safe.
  int add(std::string name, double start_ms, double end_ms, int parent = -1,
          std::int64_t request = -1) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), start_ms, end_ms, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Open a span now; close() it later.  Thread-safe.
  int open(std::string name, int parent = -1, std::int64_t request = -1) {
    const double t = now_ms();
    return add(std::move(name), t, t, parent, request);
  }
  double close(int id) {
    const double t = now_ms();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ms = t;
    return s.end_ms - s.start_ms;
  }

  /// Total and self time per span name, for the stderr summary table.
  [[nodiscard]] std::map<std::string, std::pair<double, double>> by_name()
      const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<const Span*>> kids(spans_.size());
    for (const Span& c : spans_)
      if (c.parent >= 0)
        kids[static_cast<std::size_t>(c.parent)].push_back(&c);
    std::map<std::string, std::pair<double, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& [total, self] = out[spans_[i].name];
      total += spans_[i].end_ms - spans_[i].start_ms;
      self += self_of(spans_[i], kids[i]);
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"request\":%lld}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_ms * 1e3,
                   (s.end_ms - s.start_ms) * 1e3, i, s.parent,
                   static_cast<long long>(s.request));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static double self_of(const Span& s, const std::vector<const Span*>& kids) {
    std::vector<std::pair<double, double>> cover;
    for (const Span* c : kids)
      cover.emplace_back(std::max(c->start_ms, s.start_ms),
                         std::min(c->end_ms, s.end_ms));
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = s.start_ms;
    for (const auto& [a, b] : cover) {
      const double lo = std::max(a, reach);
      if (b > lo) {
        covered += b - lo;
        reach = b;
      }
    }
    return (s.end_ms - s.start_ms) - covered;
  }

  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace unp::perfbench
