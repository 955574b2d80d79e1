// Whole-campaign driver: wires topology, availability, the scheduler, the
// fault model and the session simulator into the 13-month monitoring
// campaign, streaming the telemetry every analysis consumes.
//
// Determinism: every stochastic component derives its stream from the one
// campaign seed; node timelines are independent, so the per-node work can
// be executed on any number of threads with bit-identical results.  The
// record stream is emitted to sinks in ascending node-index order no matter
// the thread count, so downstream consumers (archive, disk spill, streaming
// extraction) observe one canonical stream per seed.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/availability.hpp"
#include "cluster/topology.hpp"
#include "faults/suite.hpp"
#include "sched/planner.hpp"
#include "sim/session_sim.hpp"
#include "telemetry/archive.hpp"
#include "telemetry/sink.hpp"

namespace unp {
class ThreadPool;
}

namespace unp::sim {

struct CampaignConfig {
  std::uint64_t seed = 42;
  CampaignWindow window{};
  cluster::Topology::Config topology{};
  cluster::AvailabilityModel::Config availability{};
  sched::ScanPlanner::Config planner{};
  faults::FaultModelSuite::Config faults{};
  SessionSimConfig session{};

  /// Auto-append the study's administrative outages to the availability
  /// config: the degrading node's unmonitored December stretches (the
  /// "errors stop abruptly" artefact of Fig 12) and the pathological node's
  /// removal from the scheduler pool.
  bool wire_special_outages = true;
};

/// Per-node accounting next to the raw archive.
struct NodeAccounting {
  cluster::NodeId node;
  double scanned_hours = 0.0;
  double terabyte_hours = 0.0;
  std::size_t sessions = 0;
};

/// Everything the campaign produces besides the record stream itself:
/// the concrete topology, the ground-truth fault events and the per-node
/// accounting.  This is what a streaming run returns — the records went to
/// the sinks and are not resident here.
struct CampaignSummary {
  cluster::Topology topology;
  /// Ground-truth fault events (sorted), for truth-vs-observation studies.
  std::vector<faults::FaultEvent> ground_truth;
  std::vector<NodeAccounting> accounting;  ///< one entry per monitored node

  [[nodiscard]] double total_scanned_hours() const noexcept;
  [[nodiscard]] double total_terabyte_hours() const noexcept;
};

/// A materialized campaign: the streaming run's summary plus the archive
/// the CampaignArchive sink collected.  Totals forward to the summary so
/// the accounting arithmetic exists once.
struct CampaignResult {
  CampaignSummary summary;
  telemetry::CampaignArchive archive;

  [[nodiscard]] double total_scanned_hours() const noexcept {
    return summary.total_scanned_hours();
  }
  [[nodiscard]] double total_terabyte_hours() const noexcept {
    return summary.total_terabyte_hours();
  }
};

/// The topology the campaign instantiates for `config` (deterministic; lets
/// consumers of a spilled record stream rebuild the fleet without rerunning
/// the simulation).
[[nodiscard]] cluster::Topology campaign_topology(const CampaignConfig& config);

// The component wiring build_open_loop_fleet uses, one helper per derived
// config or sub-seed.  Probes that time the campaign's phases one by one
// call them directly; everything else goes through build_open_loop_fleet.

/// Availability config with window + special administrative outages wired.
[[nodiscard]] cluster::AvailabilityModel::Config campaign_availability(
    const CampaignConfig& config);

/// Planner config with the campaign's derived scheduler seed.
[[nodiscard]] sched::ScanPlanner::Config campaign_planner_config(
    const CampaignConfig& config);

/// Sub-seed feeding fault generation (FaultModelSuite::generate).
[[nodiscard]] std::uint64_t campaign_fault_seed(
    const CampaignConfig& config) noexcept;

/// Sub-seed feeding per-node session simulation (simulate_node).
[[nodiscard]] std::uint64_t campaign_session_seed(
    const CampaignConfig& config) noexcept;

/// The open-loop fleet: everything the campaign derives before session
/// simulation.  run_campaign_shard builds it as its phases 1-2, and the
/// closed loops in src/policy build the same fleet, so their open-loop
/// observations are the streaming campaign's bit-for-bit.
struct OpenLoopFleet {
  cluster::Topology topology;
  /// One scan plan per monitored node, in topology.monitored_nodes() order.
  std::vector<sched::ScanPlan> plans;
  /// Ground-truth fault events of the whole fleet (sorted).
  std::vector<faults::FaultEvent> ground_truth;
  /// Per node slot (cluster::node_index), the ascending positions of that
  /// node's events in `ground_truth`: consumers read the events in place.
  std::vector<std::vector<std::uint32_t>> events_by_slot;
  /// Sub-seed feeding per-node session simulation (simulate_node).
  std::uint64_t session_seed = 0;

  [[nodiscard]] const std::vector<std::uint32_t>& events_of(
      cluster::NodeId node) const {
    return events_by_slot[static_cast<std::size_t>(cluster::node_index(node))];
  }
};

/// Build the open-loop fleet of `config`: topology, per-node scan plans (on
/// `pool`; nullptr plans serially), fleet-wide fault generation and the
/// per-slot event index.  Identical for any pool size.
[[nodiscard]] OpenLoopFleet build_open_loop_fleet(const CampaignConfig& config,
                                                  ThreadPool* pool);

/// Estimated session-simulation cost of monitored position `j` of `fleet`:
/// the word count of the node's stuck events times the number of sessions
/// in its plan.  A stuck word is re-logged on every pass of every session,
/// so this tracks the node's error runs (371,800 for the seed-42
/// pathological node, 0 for every other node); transient events cost
/// little however many there are, so an events x sessions estimate would
/// rank a node with many transients above the pathological one.
[[nodiscard]] std::uint64_t node_cost_estimate(const OpenLoopFleet& fleet,
                                               std::size_t j);

/// Hot-path knobs for the record-emission machinery.  The defaults are the
/// optimized path; the legacy flags reproduce the pre-arena allocation
/// behavior so the campaign throughput bench can measure both in one binary.
/// Every combination emits a byte-identical record stream.
struct CampaignEmitOptions {
  /// Reuse per-slot NodeLog / event / encode buffers across node blocks;
  /// false recreates every buffer per block (the legacy churn).
  bool reuse_buffers = true;
  /// Deliver each node's log to sinks as one bulk on_node_log call, with
  /// the UNPA body pre-encoded in the simulation workers whenever a sink
  /// wants bytes; false replays record by record through the per-record
  /// virtual interface.
  bool bulk_node_logs = true;
  /// Encode kernel set for pre-encoded bodies; null means the process-wide
  /// active set.  Output bytes are identical for every set.
  const telemetry::kernels::EncodeKernels* encode = nullptr;
};

/// Stream the campaign through `sinks`.  Per-node records are pushed with
/// full framing (begin_campaign .. end_campaign, nodes ascending by index)
/// from the calling thread, block by block: the pool simulates a block of
/// nodes, the caller emits it and frees it, so only one block of node logs
/// is resident besides the heavy nodes'.
///
/// Heavy-first: with a pool, each node whose node_cost_estimate exceeds the
/// run's total estimate divided by `threads` (at most `threads` - 1 of
/// them, heaviest first) is simulated as its own pool task before the first
/// block starts, into its own buffers.  The blocks skip it; when emission
/// reaches it, the caller waits for that task alone, emits the node and
/// frees its buffers.  The long-pole node therefore starts with the first
/// block and overlaps with the simulation and emission of every node before
/// it, instead of starting only when its own block comes up.
///
/// Emission order, block size and the bytes each node emits do not depend
/// on scheduling, so the stream is bit-identical for any thread count, any
/// `emit` options and any encode kernel set.
CampaignSummary run_campaign_streaming(
    const CampaignConfig& config,
    const std::vector<telemetry::RecordSink*>& sinks, std::size_t threads = 1,
    const CampaignEmitOptions& emit = {});

/// Run the campaign and materialize the archive (the CampaignArchive sink
/// fed by run_campaign_streaming).
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config,
                                          std::size_t threads = 1);

/// Thread count used for the default campaign: every hardware thread.
[[nodiscard]] std::size_t default_campaign_threads() noexcept;

/// The calibrated default campaign (seed 42) used by every bench binary.
/// Simulated multithreaded on first use (identical to a 1-thread run).
[[nodiscard]] const CampaignResult& default_campaign();

}  // namespace unp::sim
