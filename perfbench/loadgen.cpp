#include "loadgen.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <thread>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "serve/server.hpp"
#include "store/reader.hpp"
#include "util/query_render.hpp"

namespace unp::perfbench {

std::vector<ScheduledRequest> read_schedule(const std::string& path) {
  std::ifstream in(path);
  UNP_REQUIRE(in.good());
  std::vector<ScheduledRequest> out;
  std::string row;
  while (std::getline(in, row)) {
    if (row.empty()) continue;
    const std::size_t a = row.find('\t');
    const std::size_t b = a == std::string::npos ? a : row.find('\t', a + 1);
    UNP_REQUIRE(b != std::string::npos);
    ScheduledRequest r;
    r.due_s = std::stod(row.substr(0, a)) * 1e-6;
    r.phase = row.substr(a + 1, b - a - 1);
    r.line = row.substr(b + 1);
    UNP_REQUIRE(out.empty() || r.due_s >= out.back().due_s);
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<RequestOutcome> run_open_loop(
    std::uint16_t port, const std::vector<ScheduledRequest>& schedule,
    std::size_t conns, std::chrono::steady_clock::time_point start) {
  using Clock = std::chrono::steady_clock;
  std::vector<RequestOutcome> out(schedule.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = start;
  const auto since = [t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&] {
      int fd = -1;
      for (std::size_t i = next.fetch_add(1); i < schedule.size();
           i = next.fetch_add(1)) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(schedule[i].due_s)));
        RequestOutcome& o = out[i];
        o.send_s = since();
        try {
          if (fd < 0) fd = serve::connect_local(port);
          serve::Response r = serve::roundtrip(fd, schedule[i].line);
          o.ok = r.ok;
          o.body = std::move(r.body);
        } catch (const ContractViolation& e) {
          o.ok = false;
          o.body = e.what();
          if (fd >= 0) (void)::close(fd);
          fd = -1;
        }
        o.done_s = since();
      }
      if (fd >= 0) (void)::close(fd);
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

std::size_t count_body_mismatches(
    const std::string& store_path,
    const std::vector<ScheduledRequest>& schedule,
    const std::vector<RequestOutcome>& outcomes, std::size_t threads) {
  UNP_REQUIRE(schedule.size() == outcomes.size());
  std::map<std::string, std::string> expected;
  for (const ScheduledRequest& r : schedule) expected[r.line];
  std::vector<std::map<std::string, std::string>::iterator> slots;
  for (auto it = expected.begin(); it != expected.end(); ++it)
    slots.push_back(it);

  const store::StoreReader reader = store::StoreReader::open(store_path);
  ThreadPool pool(threads);
  pool.parallel_for(slots.size(), [&](std::size_t i) {
    try {
      slots[i]->second = bench::render_request_to_string(
          reader, bench::parse_request_line(slots[i]->first),
          store::ScanOptions{});
    } catch (const ContractViolation& e) {
      // No served body can start with NUL, so this always mismatches.
      slots[i]->second = std::string(1, '\0') + e.what();
    }
  });

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    if (outcomes[i].ok && outcomes[i].body != expected[schedule[i].line])
      ++mismatches;
  return mismatches;
}

}  // namespace unp::perfbench
