// The benchmark's in-process half.
//
//   unp_bench_probe loadgen --port P --schedule F --conns N --store S --out F
//
// drives a running unp_serve with the open-loop schedule F, writes one row
// per request ("phase ok late_ms latency_ms", both timed from the due time)
// to the --out file, checks every OK body against render_request_to_string
// over the same store, and prints {"requests","failed","mismatched"}.
//
//   unp_bench_probe trace --workload W --seed S --threads N --store S
//                   --cache-dir D --work-dir W --schedule F
//                   --report-out F --spans-out F
//
// is the traced run.  It calls each layer's public functions directly,
// times them with the benchmark's own spans (nothing inside src/ is
// instrumented), and prints one JSON object of per-layer metrics.  Layers:
//   - campaign probe: the open-loop wiring of src/policy/loop.cpp (plans,
//     fleet faults, per-node simulate_node, spill encode, collapse), timed
//     per node, then checked node by node against the record counts that
//     run_campaign_streaming emits;
//   - consumer: the unp_report one-pass pipeline with a timing RecordSink
//     around ScanProfileSink + StreamingExtractor, cold (W = cold_report) or
//     replaying the cache in D, then the analyzer fan-out and the render;
//   - ECC population replay, UNPC replay, store build, store scans;
//   - serve::Server in-process with unp_serve's RenderFn wrapped in a span.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/extraction.hpp"
#include "analysis/fault_sink.hpp"
#include "analysis/metrics.hpp"
#include "analysis/streaming_extractor.hpp"
#include "cluster/availability.hpp"
#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "ecc/engine.hpp"
#include "ecc/registry.hpp"
#include "faults/suite.hpp"
#include "loadgen.hpp"
#include "serve/server.hpp"
#include "sim/campaign.hpp"
#include "spans.hpp"
#include "store/builder.hpp"
#include "store/reader.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/kernels/kernels.hpp"
#include "util/campaign_cache.hpp"
#include "util/query_render.hpp"
#include "util/report_sections.hpp"

namespace {

using namespace unp;
using perfbench::Spans;
using Clock = std::chrono::steady_clock;

// --- small helpers --------------------------------------------------------

struct Args {
  std::map<std::string, std::string> kv;
  [[nodiscard]] const std::string& get(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      std::fprintf(stderr, "unp_bench_probe: missing --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
  [[nodiscard]] std::size_t num(const std::string& key) const {
    return static_cast<std::size_t>(std::stoull(get(key)));
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    a.kv[argv[i] + 2] = argv[i + 1];
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest of p99.9/p99/p95/p90/p50 (nearest rank) with at least ten
/// samples beyond it; the maximum when there are fewer than eleven samples.
double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
    if (rank >= 1 && v.size() - rank >= 10) return v[rank - 1];
  }
  return v.back();
}

double file_mib(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / (1 << 20);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Ordered metric list, printed as {"name": [value, "unit"], ...}.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows;
  void add(std::string name, double value, std::string unit) {
    rows.emplace_back(std::move(name), std::make_pair(value, std::move(unit)));
  }
};

// --- record sinks ---------------------------------------------------------

/// Counts every record each node emits (any delivery path).
class CountingSink final : public telemetry::RecordSink {
 public:
  explicit CountingSink(std::size_t slots) : counts_(slots, 0) {}
  void begin_node(cluster::NodeId node) override {
    current_ = static_cast<std::size_t>(cluster::node_index(node));
  }
  void on_start(const telemetry::StartRecord&) override {
    ++counts_[current_];
  }
  void on_end(const telemetry::EndRecord&) override { ++counts_[current_]; }
  void on_alloc_fail(const telemetry::AllocFailRecord&) override {
    ++counts_[current_];
  }
  void on_error_run(const telemetry::ErrorRun&) override {
    ++counts_[current_];
  }
  void on_node_log(telemetry::EncodedNodeLog& log) override {
    const telemetry::NodeLog& l = log.log();
    counts_[current_] += l.starts().size() + l.ends().size() +
                         l.alloc_fails().size() + l.error_runs().size();
  }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::size_t current_ = 0;
};

/// Discards everything (the replay-throughput consumer).
class NullSink final : public telemetry::RecordSink {
 public:
  void on_start(const telemetry::StartRecord&) override {}
  void on_end(const telemetry::EndRecord&) override {}
  void on_alloc_fail(const telemetry::AllocFailRecord&) override {}
  void on_error_run(const telemetry::ErrorRun&) override {}
};

/// Forwards to the consumer sinks and times them per node: busy is the time
/// from begin_node to the end of end_node (the extractor collapses the node
/// in end_node); wait is the gap since the previous node was handed back,
/// i.e. the consumer idling for the producer or the decoder.
class TimedSink final : public telemetry::RecordSink {
 public:
  TimedSink(std::vector<telemetry::RecordSink*> inner, Spans& spans,
            int parent)
      : inner_(std::move(inner)), spans_(spans), parent_(parent) {}

  void begin_campaign(const CampaignWindow& w) override {
    for (auto* s : inner_) s->begin_campaign(w);
    busy_ms_ = wait_ms_ = 0.0;
    error_runs_ = 0;
    last_exit_ms_ = spans_.now_ms();
  }
  void begin_node(cluster::NodeId node) override {
    node_start_ms_ = spans_.now_ms();
    wait_ms_ += node_start_ms_ - last_exit_ms_;
    for (auto* s : inner_) s->begin_node(node);
  }
  void on_start(const telemetry::StartRecord& r) override {
    for (auto* s : inner_) s->on_start(r);
  }
  void on_end(const telemetry::EndRecord& r) override {
    for (auto* s : inner_) s->on_end(r);
  }
  void on_alloc_fail(const telemetry::AllocFailRecord& r) override {
    for (auto* s : inner_) s->on_alloc_fail(r);
  }
  void on_error_run(const telemetry::ErrorRun& r) override {
    ++error_runs_;
    for (auto* s : inner_) s->on_error_run(r);
  }
  void on_node_log(telemetry::EncodedNodeLog& log) override {
    error_runs_ += log.log().error_runs().size();
    for (auto* s : inner_) s->on_node_log(log);
  }
  void end_node(cluster::NodeId node) override {
    for (auto* s : inner_) s->end_node(node);
    last_exit_ms_ = spans_.now_ms();
    busy_ms_ += last_exit_ms_ - node_start_ms_;
    spans_.add("analysis.extract_node", node_start_ms_, last_exit_ms_,
               parent_);
  }
  void end_campaign() override {
    for (auto* s : inner_) s->end_campaign();
  }

  [[nodiscard]] double busy_ms() const { return busy_ms_; }
  [[nodiscard]] double wait_ms() const { return wait_ms_; }
  [[nodiscard]] std::uint64_t error_runs() const { return error_runs_; }

 private:
  std::vector<telemetry::RecordSink*> inner_;
  Spans& spans_;
  int parent_;
  double busy_ms_ = 0.0, wait_ms_ = 0.0;
  std::uint64_t error_runs_ = 0;
  double node_start_ms_ = 0.0, last_exit_ms_ = 0.0;
};

// --- campaign probe -------------------------------------------------------

/// Re-run the campaign the way src/policy/loop.cpp wires its open loop, one
/// node at a time so every call gets its own span; spill each log through
/// an ArchiveWriter and collapse it as the extractor would.  Returns false
/// when the per-node record counts differ from run_campaign_streaming's.
bool campaign_probe(std::uint64_t seed, std::size_t threads,
                    const std::string& spill_path, Spans& spans,
                    Metrics& m) {
  sim::CampaignConfig cc;
  cc.seed = seed;
  const int root = spans.open("campaign_probe");

  const int s_plan = spans.open("sched.plan_all", root);
  const cluster::Topology topology = sim::campaign_topology(cc);
  const cluster::AvailabilityModel availability(
      sim::campaign_availability(cc));
  const sched::ScanPlanner planner(sim::campaign_planner_config(cc));
  const auto& nodes = topology.monitored_nodes();
  const std::size_t n = nodes.size();
  std::vector<sched::ScanPlan> plans(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = spans.now_ms();
    plans[i] = planner.plan(nodes[i], availability.build(nodes[i]));
    spans.add("sched.plan", t, spans.now_ms(), s_plan);
  }
  m.add("sched.plan_ms", spans.close(s_plan), "ms");

  std::vector<faults::NodeContext> contexts(n);
  for (std::size_t i = 0; i < n; ++i) {
    contexts[i].node = nodes[i];
    contexts[i].plan = &plans[i];
    contexts[i].scanned_hours = plans[i].scanned_hours();
    contexts[i].near_overheating_slot =
        nodes[i].soc == cluster::kOverheatingSoc - 1 ||
        nodes[i].soc == cluster::kOverheatingSoc + 1;
  }
  const int s_gen = spans.open("faults.generate", root);
  const faults::FaultModelSuite suite(cc.faults);
  const std::vector<faults::FaultEvent> truth =
      suite.generate(contexts, sim::campaign_fault_seed(cc));
  m.add("faults.generate_ms", spans.close(s_gen), "ms");
  m.add("faults.events", static_cast<double>(truth.size()), "count");
  std::vector<std::vector<faults::FaultEvent>> per_node(
      static_cast<std::size_t>(cluster::kStudyNodeSlots));
  for (const auto& ev : truth)
    per_node[static_cast<std::size_t>(cluster::node_index(ev.node))]
        .push_back(ev);
  const std::uint64_t session_seed = sim::campaign_session_seed(cc);
  const analysis::ExtractionConfig extraction;

  std::ofstream spill(spill_path, std::ios::binary | std::ios::trunc);
  telemetry::ArchiveWriter writer(spill);
  writer.begin_campaign(cc.window);
  std::string scratch;
  telemetry::EncodeArena arena;
  const auto& kernels = telemetry::kernels::active_encode_kernels();

  std::vector<std::uint64_t> probe_counts(
      static_cast<std::size_t>(cluster::kStudyNodeSlots), 0);
  double sim_sum = 0, sim_max = 0, spill_sum = 0, collapse_sum = 0,
         collapse_max = 0;
  std::uint64_t error_runs = 0, records = 0;
  const int s_nodes = spans.open("sim.nodes", root);
  for (std::size_t i = 0; i < n; ++i) {
    const cluster::NodeId node = nodes[i];
    const auto slot = static_cast<std::size_t>(cluster::node_index(node));
    double t = spans.now_ms();
    const telemetry::NodeLog log = sim::simulate_node(
        cc.session, node, plans[i], per_node[slot],
        cluster::Topology::is_overheating_slot(node), session_seed);
    double d = spans.now_ms() - t;
    spans.add("sim.node", t, t + d, s_nodes);
    sim_sum += d;
    sim_max = std::max(sim_max, d);
    const std::uint64_t recs = log.starts().size() + log.ends().size() +
                               log.alloc_fails().size() +
                               log.error_runs().size();
    probe_counts[slot] = recs;
    records += recs;
    error_runs += log.error_runs().size();

    t = spans.now_ms();
    writer.begin_node(node);
    telemetry::EncodedNodeLog enc(node, log, scratch, kernels, &arena);
    writer.on_node_log(enc);
    writer.end_node(node);
    d = spans.now_ms() - t;
    spans.add("telemetry.spill", t, t + d, s_nodes);
    spill_sum += d;

    t = spans.now_ms();
    const auto faults =
        analysis::collapse_node_log(node, log, extraction.merge_window_s);
    d = spans.now_ms() - t;
    spans.add("analysis.collapse", t, t + d, s_nodes);
    collapse_sum += d;
    collapse_max = std::max(collapse_max, d);
  }
  writer.end_campaign();
  spill.close();
  spans.close(s_nodes);
  std::filesystem::remove(spill_path);

  m.add("sim.node_sum_ms", sim_sum, "ms");
  m.add("sim.node_max_ms", sim_max, "ms");
  m.add("sim.node_max_share", sim_sum > 0 ? sim_max / sim_sum : 0.0, "ratio");

  CountingSink counter(static_cast<std::size_t>(cluster::kStudyNodeSlots));
  const int s_stream = spans.open("sim.stream", root);
  (void)sim::run_campaign_streaming(cc, {&counter}, threads);
  m.add("sim.stream_ms", spans.close(s_stream), "ms");
  m.add("sim.error_runs", static_cast<double>(error_runs), "count");
  m.add("sim.records", static_cast<double>(records), "count");
  m.add("telemetry.spill_ms", spill_sum, "ms");
  m.add("analysis.collapse_ms", collapse_sum, "ms");
  m.add("analysis.collapse_max_ms", collapse_max, "ms");
  spans.close(root);

  std::size_t differing = 0;
  for (std::size_t s = 0; s < probe_counts.size(); ++s)
    if (probe_counts[s] != counter.counts()[s]) ++differing;
  if (differing)
    std::fprintf(stderr,
                 "unp_bench_probe: %zu nodes' record counts differ from "
                 "run_campaign_streaming\n",
                 differing);
  return differing == 0;
}

// --- consumer pipeline ----------------------------------------------------

struct PipelineRun {
  double wall_ms = 0.0;
  std::string report;
  std::unique_ptr<analysis::ScanProfileSink> scan;
  analysis::ExtractionResult extraction;
  std::uint64_t fingerprint = 0;
};

/// unp_report --all's one-pass pipeline, in process.  With `m` set, the
/// consumer sinks sit behind a TimedSink and every stage gets a span and a
/// metric; without it the run is the untraced reference.
PipelineRun report_pipeline(std::uint64_t seed, std::size_t threads,
                            Spans& spans, Metrics* m) {
  PipelineRun run;
  const double t0 = spans.now_ms();
  const int root = m ? spans.open("report_pipeline") : -1;
  sim::CampaignConfig config;
  config.seed = seed;
  const analysis::ExtractionConfig ext;
  run.scan = std::make_unique<analysis::ScanProfileSink>();
  analysis::StreamingExtractor extractor(ext);
  const int s_acq = m ? spans.open("acquire", root) : -1;
  bench::StreamStats acquire;
  std::unique_ptr<TimedSink> timed;
  if (m) {
    timed = std::make_unique<TimedSink>(
        std::vector<telemetry::RecordSink*>{run.scan.get(), &extractor}, spans,
        s_acq);
    acquire = bench::stream_campaign(config, ext, {timed.get()}, threads);
    spans.close(s_acq);
  } else {
    acquire = bench::stream_campaign(config, ext, {run.scan.get(), &extractor},
                                     threads);
  }
  run.fingerprint = acquire.fingerprint;

  const int s_fin = m ? spans.open("analysis.finish", root) : -1;
  run.extraction = extractor.finish();
  const double finish_ms = m ? spans.close(s_fin) : 0.0;

  bool all[bench::kSectionCount];
  std::fill(std::begin(all), std::end(all), true);
  bench::ReportAnalyzers analyzers(all);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  const CampaignWindow window = run.scan->window();
  const int s_fan = m ? spans.open("analysis.fanout", root) : -1;
  const std::vector<analysis::FaultSinkTiming> timings =
      analysis::run_fault_sinks(run.extraction.faults, {window},
                                analyzers.sinks(), pool.get());
  const double fanout_ms = m ? spans.close(s_fan) : 0.0;

  bench::ReportInputs inputs;
  inputs.window = window;
  inputs.hours = &run.scan->hours_grid();
  inputs.terabyte_hours = &run.scan->terabyte_hours_grid();
  inputs.daily_terabyte_hours = run.scan->daily_terabyte_hours();
  inputs.total_hours = run.scan->total_monitored_hours();
  inputs.total_terabyte_hours = run.scan->total_terabyte_hours();
  inputs.monitored_nodes = run.scan->monitored_nodes();
  inputs.extraction = &run.extraction;
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* out = open_memstream(&buf, &len);
  UNP_REQUIRE(out != nullptr);
  const int s_render = m ? spans.open("report.render", root) : -1;
  analyzers.render(inputs, out);
  std::fclose(out);
  const double render_ms = m ? spans.close(s_render) : 0.0;
  run.report.assign(buf, len);
  std::free(buf);
  if (m) spans.close(root);
  run.wall_ms = spans.now_ms() - t0;

  if (m) {
    const std::uint64_t raw = timed->error_runs();
    const auto faults = static_cast<double>(run.extraction.faults.size());
    m->add("analysis.extract_busy_ms", timed->busy_ms(), "ms");
    m->add("analysis.extract_wait_ms", timed->wait_ms(), "ms");
    m->add("analysis.finish_ms", finish_ms, "ms");
    m->add("analysis.raw_error_runs", static_cast<double>(raw), "count");
    m->add("analysis.faults", faults, "count");
    m->add("analysis.kept_ratio",
           raw ? faults / static_cast<double>(raw) : 0.0, "ratio");
    m->add("analysis.fanout_ms", fanout_ms, "ms");
    double sink_max = 0.0;
    for (const auto& t : timings)
      sink_max = std::max(sink_max, t.milliseconds);
    m->add("analysis.sink_max_ms", sink_max, "ms");
    for (std::size_t i = 0; i < timings.size(); ++i)
      m->add(std::string("analysis.sink.") + analyzers.labels()[i] + "_ms",
             timings[i].milliseconds, "ms");
    m->add("report.render_ms", render_ms, "ms");
  }
  return run;
}

// --- serve ----------------------------------------------------------------

std::string request_kind(const std::string& line) {
  if (line.find("--count") != std::string::npos) return "count";
  for (const char* s : {"--fig", "--tab1", "--headline", "--ext"})
    if (line.find(s) != std::string::npos) return "section";
  // Whole-campaign listings (see perfbench/reqstream.py).
  if (line.find("--limit 100") != std::string::npos) return "heavy";
  return "rows";
}

struct RenderRecord {
  std::string line;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Run `schedule` open-loop against an in-process server whose RenderFn is
/// unp_serve's, wrapped in a span when `record` is non-null.  Returns the
/// outcomes, the server's final stats and the generator's start time on
/// the span clock.
struct ServeRun {
  std::vector<perfbench::RequestOutcome> outcomes;
  serve::Server::Stats stats;
  double start_ms = 0.0;
  double wall_ms = 0.0;
};

ServeRun serve_run(const std::string& store, std::size_t workers,
                   const std::vector<perfbench::ScheduledRequest>& schedule,
                   Spans& spans, std::vector<RenderRecord>* record) {
  std::mutex mu;
  serve::Server::Config cfg;
  cfg.store_paths = {store};
  cfg.workers = workers;
  serve::Server server(
      std::move(cfg),
      [&](const std::string& line, const store::StoreReader& reader) {
        const double t = record ? spans.now_ms() : 0.0;
        std::string body = bench::render_request_to_string(
            reader, bench::parse_request_line(line), store::ScanOptions{});
        if (record) {
          const double e = spans.now_ms();
          std::lock_guard<std::mutex> lock(mu);
          record->push_back(RenderRecord{line, t, e});
        }
        return body;
      });
  server.start();
  ServeRun run;
  const Clock::time_point start = Clock::now();
  run.start_ms = spans.now_ms();
  run.outcomes =
      perfbench::run_open_loop(server.port(), schedule, workers, start);
  run.wall_ms = spans.now_ms() - run.start_ms;
  run.stats = server.stats();
  server.stop();
  return run;
}

void serve_probe(const std::string& store,
                 const std::vector<perfbench::ScheduledRequest>& fixed,
                 std::size_t workers, Spans& spans, Metrics& m,
                 std::size_t& failed) {
  std::vector<RenderRecord> renders;
  const ServeRun run = serve_run(store, workers, fixed, spans, &renders);

  // Attach each render to the request whose [send, done] interval holds it.
  std::map<std::string, std::vector<std::size_t>> by_line;
  for (std::size_t i = 0; i < fixed.size(); ++i)
    by_line[fixed[i].line].push_back(i);
  std::vector<double> render_of(fixed.size(), 0.0);
  std::vector<int> request_span(fixed.size(), -1);
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    const auto& o = run.outcomes[i];
    if (!o.ok) ++failed;
    request_span[i] = spans.add("serve.request",
                                run.start_ms + fixed[i].due_s * 1e3,
                                run.start_ms + o.done_s * 1e3, -1,
                                static_cast<std::int64_t>(i));
  }
  std::map<std::string, std::vector<double>> render_ms;
  std::map<std::string, std::vector<std::pair<double, double>>>
      by_line_renders;
  for (const RenderRecord& r : renders) {
    render_ms[request_kind(r.line)].push_back(r.end_ms - r.start_ms);
    by_line_renders[r.line].emplace_back(r.start_ms, r.end_ms);
    for (const std::size_t i : by_line[r.line]) {
      const auto& o = run.outcomes[i];
      if (r.start_ms >= run.start_ms + o.send_s * 1e3 - 1e-6 &&
          r.end_ms <= run.start_ms + o.done_s * 1e3 + 1e-6) {
        render_of[i] = r.end_ms - r.start_ms;
        spans.add("serve.render", r.start_ms, r.end_ms, request_span[i],
                  static_cast<std::int64_t>(i));
        break;
      }
    }
  }
  // A miss episode is a run of overlapping renders of one line: concurrent
  // misses of the same request (the herd) are one episode, a later miss
  // after an eviction is another.  Each episode puts one cache entry.
  std::size_t episodes = 0, section_episodes = 0, section_renders = 0;
  for (auto& [line, iv] : by_line_renders) {
    std::sort(iv.begin(), iv.end());
    std::size_t n = 0;
    double reach = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > reach) ++n;
      reach = std::max(reach, b);
    }
    episodes += n;
    if (request_kind(line) == "section") {
      section_episodes += n;
      section_renders += iv.size();
    }
  }
  std::vector<double> queue, late;
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    const auto& o = run.outcomes[i];
    queue.push_back((o.done_s - fixed[i].due_s) * 1e3 - render_of[i]);
    late.push_back((o.send_s - fixed[i].due_s) * 1e3);
  }
  for (const char* kind : {"count", "rows", "heavy", "section"}) {
    const std::vector<double>& v = render_ms[kind];
    m.add(std::string("serve.render_ms.") + kind + ".p50", median(v), "ms");
    m.add(std::string("serve.render_ms.") + kind + ".tail", tail(v), "ms");
  }
  m.add("serve.queue_ms.p50", median(queue), "ms");
  m.add("serve.queue_ms.tail", tail(queue), "ms");
  const auto& c = run.stats.cache;
  m.add("serve.cache_hit_ratio",
        c.hits + c.misses ? static_cast<double>(c.hits) /
                                static_cast<double>(c.hits + c.misses)
                          : 0.0,
        "ratio");
  m.add("serve.cache_evictions",
        static_cast<double>(episodes) - static_cast<double>(c.entries),
        "count");
  m.add("serve.renders_per_distinct_miss",
        section_episodes ? static_cast<double>(section_renders) /
                               static_cast<double>(section_episodes)
                         : 0.0,
        "ratio");
  m.add("serve.generator_late_ms", tail(late), "ms");
}

// --- store ----------------------------------------------------------------

void store_probe(const std::string& store,
                 const std::vector<perfbench::ScheduledRequest>& fixed,
                 Spans& spans, Metrics& m) {
  const store::StoreReader reader = store::StoreReader::open(store);
  const int root = spans.open("store.scans");
  std::uint64_t rows = 0;
  std::size_t pruned = 0, total = 0;
  double scan_ms = 0.0;
  std::size_t scanned = 0;
  for (const auto& r : fixed) {
    const std::string kind = request_kind(r.line);
    if (kind == "section") continue;
    if (++scanned > 2000) break;
    const bench::QueryRequest req = bench::parse_request_line(r.line);
    store::ScanStats st;
    const double t = spans.now_ms();
    (void)reader.run(req.query, store::ScanOptions{}, &st);
    const double e = spans.now_ms();
    spans.add("store.scan", t, e, root);
    scan_ms += e - t;
    rows += st.rows_scanned;
    pruned += st.segments_pruned;
    total += st.segments_total;
  }
  spans.close(root);
  m.add("store.scan_ms", scan_ms, "ms");
  m.add("store.rows_scanned", static_cast<double>(rows), "count");
  m.add("store.segments_pruned_ratio",
        total ? static_cast<double>(pruned) / static_cast<double>(total) : 0.0,
        "ratio");

  // Decode throughput: every column of every segment, pruning off.
  store::Query all;
  store::ScanOptions no_prune;
  no_prune.prune = false;
  std::vector<double> times;
  for (int k = 0; k < 5; ++k) {
    const int s = spans.open("store.decode_all");
    (void)reader.run(all, no_prune);
    times.push_back(spans.close(s));
  }
  const double bytes = static_cast<double>(std::filesystem::file_size(store));
  const double secs = median(times) * 1e-3;
  m.add("store.decode_gib_per_s", secs > 0 ? bytes / secs / (1 << 30) : 0.0,
        "GiB/s");
}

// --- subcommands ----------------------------------------------------------

int cmd_loadgen(const Args& a) {
  const auto schedule = perfbench::read_schedule(a.get("schedule"));
  const auto port = static_cast<std::uint16_t>(a.num("port"));
  const std::size_t conns = a.num("conns");
  const auto outcomes = perfbench::run_open_loop(
      port, schedule, conns, Clock::now() + std::chrono::milliseconds(20));
  std::FILE* f = std::fopen(a.get("out").c_str(), "w");
  UNP_REQUIRE(f != nullptr);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto& o = outcomes[i];
    if (!o.ok) ++failed;
    std::fprintf(f, "%s %d %.4f %.4f %.4f\n", schedule[i].phase.c_str(),
                 o.ok ? 1 : 0, (o.send_s - schedule[i].due_s) * 1e3,
                 (o.done_s - schedule[i].due_s) * 1e3, o.done_s * 1e3);
  }
  UNP_REQUIRE(std::fclose(f) == 0);
  const std::size_t mismatched =
      perfbench::count_body_mismatches(a.get("store"), schedule, outcomes,
                                       conns);
  std::printf("{\"requests\": %zu, \"failed\": %zu, \"mismatched\": %zu}\n",
              schedule.size(), failed, mismatched);
  return 0;
}

int cmd_trace(const Args& a) {
  const std::string workload = a.get("workload");
  const std::uint64_t seed = a.num("seed");
  const std::size_t threads = a.num("threads");
  const std::string work = a.get("work-dir");
  const std::string store = a.get("store");
  const auto schedule = perfbench::read_schedule(a.get("schedule"));
  std::vector<perfbench::ScheduledRequest> fixed;
  for (const auto& r : schedule)
    if (r.phase.rfind("fixed", 0) == 0) fixed.push_back(r);
  const auto fresh_dir = [&](const std::string& name) {
    const std::string d = work + "/" + name;
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d;
  };

  Spans spans;
  Metrics m;
  bool correct = campaign_probe(seed, threads, work + "/spill.unpa", spans, m);

  // Consumer pipeline: cold from an empty cache, warm from the set-up one.
  // Traced and untraced runs alternate; their median walls give the
  // tracing overhead of the report workloads.
  const bool cold = workload == "cold_report";
  std::vector<double> traced_ms, plain_ms;
  PipelineRun traced;
  Metrics first;
  for (int k = 0; k < 2; ++k) {
    setenv("UNP_CACHE_DIR",
           (cold ? fresh_dir("cold_plain") : a.get("cache-dir")).c_str(), 1);
    plain_ms.push_back(report_pipeline(seed, threads, spans, nullptr).wall_ms);
    setenv("UNP_CACHE_DIR",
           (cold ? fresh_dir("cold_traced") : a.get("cache-dir")).c_str(), 1);
    Metrics pm;
    PipelineRun run = report_pipeline(seed, threads, spans, &pm);
    traced_ms.push_back(run.wall_ms);
    if (k == 0) {
      traced = std::move(run);
      first = std::move(pm);
    }
  }
  for (auto& row : first.rows) m.rows.push_back(std::move(row));
  {
    std::ofstream out(a.get("report-out"), std::ios::binary | std::ios::trunc);
    out << traced.report;
  }

  // ECC population replay over the report's code menu.
  {
    std::vector<Word> masks;
    masks.reserve(traced.extraction.faults.size());
    for (const auto& f : traced.extraction.faults)
      masks.push_back(f.flip_mask());
    ThreadPool pool(1);
    const int s = spans.open("ecc.population");
    for (const auto& spec : ecc::default_code_specs()) {
      const auto code = ecc::make_code(spec);
      (void)ecc::evaluate_population(*code, masks, pool);
    }
    m.add("ecc.population_ms", spans.close(s), "ms");
  }

  // UNPC replay into a null sink.
  {
    std::string cache_file;
    for (const auto& e :
         std::filesystem::directory_iterator(a.get("cache-dir")))
      if (e.path().extension() == ".unpc") cache_file = e.path().string();
    UNP_REQUIRE(!cache_file.empty());
    std::ifstream is(cache_file, std::ios::binary);
    is.seekg(13);  // "UNPC" magic, version byte, 8-byte fingerprint
    const int s = spans.open("telemetry.replay");
    telemetry::ArchiveReader reader(is);
    NullSink null;
    cluster::NodeId node{};
    telemetry::NodeLog log;
    while (reader.next(node, log)) telemetry::replay_node_log(log, null);
    const double ms = spans.close(s);
    const double mib = file_mib(cache_file);
    m.add("telemetry.cache_mib", mib, "MiB");
    m.add("telemetry.replay_ms", ms, "ms");
    m.add("telemetry.replay_mib_per_s", ms > 0 ? mib / (ms * 1e-3) : 0.0,
          "MiB/s");
  }

  // Store build from the traced extraction; must equal unp_query --build's.
  {
    const std::string path = work + "/traced.unpf";
    const int s = spans.open("store.build");
    store::write_store(path, traced.extraction, *traced.scan,
                       traced.fingerprint);
    m.add("store.build_ms", spans.close(s), "ms");
    m.add("store.mib", file_mib(path), "MiB");
    if (slurp(path) != slurp(store)) {
      std::fprintf(stderr, "unp_bench_probe: traced store differs from the "
                           "unp_query --build store\n");
      correct = false;
    }
  }

  store_probe(store, fixed, spans, m);

  std::size_t failed = 0;
  serve_probe(store, fixed, threads, spans, m, failed);
  if (failed) correct = false;

  double overhead = 0.0;
  if (workload == "serve_mix") {
    // Closed-loop bursts of the fixed phase's lines on fresh servers, plain
    // and with the render span, alternating.
    std::vector<perfbench::ScheduledRequest> burst = fixed;
    for (auto& r : burst) r.due_s = 0.0;
    std::vector<double> plain, with_spans;
    std::vector<RenderRecord> sink;
    for (int k = 0; k < 3; ++k) {
      plain.push_back(
          serve_run(store, threads, burst, spans, nullptr).wall_ms);
      sink.clear();
      with_spans.push_back(
          serve_run(store, threads, burst, spans, &sink).wall_ms);
    }
    overhead = median(with_spans) / median(plain) - 1.0;
  } else {
    overhead = median(traced_ms) / median(plain_ms) - 1.0;
  }
  m.add("trace.overhead_share", overhead, "ratio");

  if (!spans.write_chrome(a.get("spans-out"))) correct = false;
  std::fprintf(stderr, "\n%-28s %12s %12s\n", "span", "total_ms", "self_ms");
  for (const auto& [name, ts] : spans.by_name())
    std::fprintf(stderr, "%-28s %12.2f %12.2f\n", name.c_str(), ts.first,
                 ts.second);

  std::printf("{\"correct\": %s, \"metrics\": {", correct ? "true" : "false");
  for (std::size_t i = 0; i < m.rows.size(); ++i)
    std::printf("%s\"%s\": [%.10g, \"%s\"]", i ? ", " : "",
                m.rows[i].first.c_str(), m.rows[i].second.first,
                m.rows[i].second.second.c_str());
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: unp_bench_probe loadgen|trace --key value...\n");
    return 2;
  }
  try {
    const Args a = parse_args(argc, argv);
    if (std::strcmp(argv[1], "loadgen") == 0) return cmd_loadgen(a);
    if (std::strcmp(argv[1], "trace") == 0) return cmd_trace(a);
    std::fprintf(stderr, "unp_bench_probe: unknown command '%s'\n", argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "unp_bench_probe: fatal: %s\n", e.what());
  }
  return 2;
}
