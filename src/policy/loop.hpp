// Closed-loop campaign: policy actions feed back into what gets scanned.
//
// The shadow engine (engine.hpp) evaluates policies counterfactually — the
// stream is fixed, ledgers are bookkeeping.  This runner closes the loop:
// a quarantine actually removes the node's scan sessions for the period
// (sched::ScanPlan::subtract_window), a page retirement actually unmaps the
// faulting page from the fault events the scanner can observe, and the node
// is then RE-SIMULATED under the actuated plan.  What the next detection
// round sees is what a real deployment would have seen.
//
// The open pass, the pathological filter and the re-simulation rounds are
// the ClosedLoopDriver's (below), which run_hammer_mitigation (hammer.hpp)
// shares.  This loop adds the loudest-node exclusion of the regime
// analyses and runs every node that observed a fault.
//
// Convergence: detection replays the threshold-quarantine controller over a
// node's observed faults; each round applies at most one NEW actuation
// (earliest first).  A cut starts one second AFTER the trigger fault so the
// trigger itself survives re-simulation — the controller re-derives the same
// decision from the same evidence and the applied-cut set grows
// monotonically until no new trigger appears (bounded by
// max_actuations_per_node).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "policy/builtin.hpp"
#include "resilience/checkpoint.hpp"
#include "sim/campaign.hpp"

namespace unp::policy {

/// One node's closed loop in progress: the actuated plan and fault events
/// (the open-loop ones to begin with) and what the latest round observed.
struct NodeRound {
  cluster::NodeId node;
  sched::ScanPlan plan;
  std::vector<faults::FaultEvent> events;
  /// Collapsed faults of the latest round, in (first_seen, address) order.
  std::vector<analysis::FaultRecord> faults;
  int rounds = 0;  ///< simulations so far; the open pass is round 1
};

/// The one closed-loop driver.  Construction is the open pass: the
/// open-loop fleet of sim::build_open_loop_fleet (so open-loop observations
/// are the streaming campaign's bit-for-bit), every monitored node
/// simulated and collapsed once, and analysis::is_pathological_node applied
/// to the raw totals.  converge() then hands each selected node to a
/// controller step and re-simulates it under the actuated plan and events
/// until the step applies nothing new.  Ground truth stays fixed, so every
/// closed-loop delta is attributable to actuation alone; timelines are
/// independent, so any thread count yields identical results.
class ClosedLoopDriver {
 public:
  /// Inspects `round.faults`, applies any new actuation to `round.plan` /
  /// `round.events` and returns true to re-simulate.  Called concurrently
  /// for distinct monitored positions `i`.
  using Step = std::function<bool(std::size_t i, NodeRound& round)>;

  ClosedLoopDriver(const sim::CampaignConfig& campaign,
                   const analysis::ExtractionConfig& extraction,
                   std::size_t threads);

  void exclude(std::size_t i);

  /// Converge every non-excluded position `select` accepts, re-simulating
  /// while `step` actuates and fewer than `max_rounds` simulations ran.
  /// Returns one round per monitored position (rounds == 0 where none
  /// ran), its plan and events released.
  [[nodiscard]] std::vector<NodeRound> converge(
      const std::function<bool(std::size_t i)>& select, const Step& step,
      int max_rounds);

 private:
  void run_parallel(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  const sim::CampaignConfig& campaign_;
  std::int64_t merge_window_s_;
  std::unique_ptr<ThreadPool> pool_;  // declared before `fleet`, planned on it

 public:
  const sim::OpenLoopFleet fleet;
  const std::vector<cluster::NodeId>& nodes;  ///< fleet's monitored nodes
  /// Open-loop faults per monitored position (empty for pathological nodes,
  /// which are never collapsed).
  std::vector<std::vector<analysis::FaultRecord>> open_faults;
  std::vector<bool> excluded;
  /// Pathological nodes in node order, then those exclude() added.
  std::vector<cluster::NodeId> excluded_nodes;
};

struct ClosedLoopConfig {
  sim::CampaignConfig campaign{};
  analysis::ExtractionConfig extraction{};
  /// The controller that gets actuated (retire_page_repeats > 0 also
  /// enables physical page retirement).
  ThresholdQuarantinePolicy::Config controller{};
  /// Clipped session remnants shorter than this are cancelled outright.
  std::int64_t min_keep_seconds = 0;
  int max_actuations_per_node = 32;
  double checkpoint_cost_hours = 10.0 / 60.0;
  std::size_t threads = 1;
};

/// One applied actuation (operator history, time-ordered per node).
struct Actuation {
  cluster::NodeId node;
  cluster::Interval cut;  ///< zero-length for page retirements
  std::uint64_t retired_page = 0;
  bool is_retirement = false;
  sched::PlanCutSummary summary;
};

struct ClosedLoopNodeReport {
  cluster::NodeId node;
  std::uint64_t open_faults = 0;    ///< observed with the open-loop plan
  std::uint64_t closed_faults = 0;  ///< observed after actuation converged
  int actuations = 0;
  int rounds = 0;  ///< re-simulation rounds until convergence
};

struct ClosedLoopResult {
  /// Pathological + loudest nodes, resolved from the open-loop pass and
  /// skipped by the controller entirely (fleet totals below exclude them).
  std::vector<cluster::NodeId> excluded_nodes;

  std::uint64_t open_loop_errors = 0;
  std::uint64_t closed_loop_errors = 0;
  std::uint64_t quarantine_entries = 0;
  std::uint64_t pages_retired = 0;
  std::int64_t quarantined_seconds = 0;   ///< sum of quarantine periods
  std::int64_t scan_seconds_removed = 0;  ///< scan time the cuts took away

  double open_mtbf_hours = 0.0;
  double closed_mtbf_hours = 0.0;
  double node_days_quarantined = 0.0;
  double availability_loss = 0.0;

  /// Regime classification of the CLOSED-loop fleet (excluded nodes
  /// dropped) and the oracle static-vs-adaptive comparison over it.
  analysis::RegimeResult regime;
  resilience::CheckpointComparison checkpoint;
  /// Causal variant: day d runs the interval chosen from day d-1's regime
  /// (day 0 runs normal), wastes weighted by each day's actual MTBF.  The
  /// matching static waste uses the same per-day MTBFs, so the two are
  /// directly comparable.
  double causal_static_waste = 0.0;
  double causal_adaptive_waste = 0.0;

  std::vector<Actuation> actuations;            ///< per node, time-ordered
  std::vector<ClosedLoopNodeReport> per_node;   ///< nodes with any faults
};

[[nodiscard]] ClosedLoopResult run_closed_loop(const ClosedLoopConfig& config);

}  // namespace unp::policy
