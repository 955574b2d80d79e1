#include "sim/campaign.hpp"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "sim/shard.hpp"
#include "telemetry/binary_codec.hpp"
#include "telemetry/kernels/kernels.hpp"

namespace unp::sim {

double CampaignSummary::total_scanned_hours() const noexcept {
  double total = 0.0;
  for (const auto& a : accounting) total += a.scanned_hours;
  return total;
}

double CampaignSummary::total_terabyte_hours() const noexcept {
  double total = 0.0;
  for (const auto& a : accounting) total += a.terabyte_hours;
  return total;
}

cluster::Topology campaign_topology(const CampaignConfig& config) {
  cluster::Topology::Config topo_config = config.topology;
  topo_config.seed = mix64(config.seed, 0x70B0);
  return cluster::Topology(topo_config);
}

cluster::AvailabilityModel::Config campaign_availability(
    const CampaignConfig& config) {
  cluster::AvailabilityModel::Config avail = config.availability;
  avail.window = config.window;
  if (!config.wire_special_outages) return avail;

  // The degrading node went unmonitored from late November except a short
  // December re-test (Section III-H explains Fig 12's silent stretches).
  const cluster::NodeId degrading = config.faults.degrading.node;
  avail.extra_outages.push_back(
      {degrading,
       {from_civil_utc({2015, 11, 26, 12, 0, 0}),
        from_civil_utc({2015, 12, 12, 9, 0, 0})}});
  avail.extra_outages.push_back(
      {degrading,
       {from_civil_utc({2015, 12, 14, 21, 0, 0}), config.window.end}});

  // The pathological node left the scheduler pool at its removal date.
  avail.extra_outages.push_back(
      {config.faults.pathological.node,
       {config.faults.pathological.removal, config.window.end}});
  return avail;
}

sched::ScanPlanner::Config campaign_planner_config(const CampaignConfig& config) {
  sched::ScanPlanner::Config planner_config = config.planner;
  planner_config.seed = mix64(config.seed, 0x51A2);
  return planner_config;
}

std::uint64_t campaign_fault_seed(const CampaignConfig& config) noexcept {
  return mix64(config.seed, 0xFA17);
}

std::uint64_t campaign_session_seed(const CampaignConfig& config) noexcept {
  return mix64(config.seed, 0x5E55);
}

OpenLoopFleet build_open_loop_fleet(const CampaignConfig& config,
                                    ThreadPool* pool) {
  OpenLoopFleet fleet{campaign_topology(config), {}, {}, {},
                      campaign_session_seed(config)};
  const cluster::AvailabilityModel availability(campaign_availability(config));
  const sched::ScanPlanner planner(campaign_planner_config(config));
  const auto& nodes = fleet.topology.monitored_nodes();
  const std::size_t n = nodes.size();

  // Phase 1: per-node scan plans (parallel, order-independent).
  fleet.plans.resize(n);
  auto build_plan = [&](std::size_t i) {
    fleet.plans[i] = planner.plan(nodes[i], availability.build(nodes[i]));
  };
  if (pool != nullptr) {
    pool->parallel_for(n, build_plan);
  } else {
    for (std::size_t i = 0; i < n; ++i) build_plan(i);
  }

  // Phase 2: fleet-wide fault generation (sequential; fleet-level streams).
  std::vector<faults::NodeContext> contexts(n);
  for (std::size_t i = 0; i < n; ++i) {
    contexts[i].node = nodes[i];
    contexts[i].plan = &fleet.plans[i];
    contexts[i].scanned_hours = fleet.plans[i].scanned_hours();
    contexts[i].near_overheating_slot =
        nodes[i].soc == cluster::kOverheatingSoc - 1 ||
        nodes[i].soc == cluster::kOverheatingSoc + 1;
  }
  const faults::FaultModelSuite suite(config.faults);
  fleet.ground_truth = suite.generate(contexts, campaign_fault_seed(config));

  // Partition events per node as index lists into the shared fleet vector —
  // the events themselves (with their heap word lists) are never copied on
  // the hot path; workers read them in place.
  UNP_REQUIRE(fleet.ground_truth.size() <= 0xFFFFFFFFull);
  fleet.events_by_slot.resize(
      static_cast<std::size_t>(cluster::kStudyNodeSlots));
  for (std::size_t e = 0; e < fleet.ground_truth.size(); ++e) {
    fleet.events_by_slot[static_cast<std::size_t>(
                             cluster::node_index(fleet.ground_truth[e].node))]
        .push_back(static_cast<std::uint32_t>(e));
  }
  return fleet;
}

std::uint64_t node_cost_estimate(const OpenLoopFleet& fleet, std::size_t j) {
  const cluster::NodeId node = fleet.topology.monitored_nodes()[j];
  std::uint64_t stuck_words = 0;
  for (const std::uint32_t e : fleet.events_of(node)) {
    const faults::FaultEvent& ev = fleet.ground_truth[e];
    if (ev.persistence == faults::Persistence::kStuck)
      stuck_words += ev.words.size();
  }
  return stuck_words * fleet.plans[j].sessions.size();
}

namespace {

/// Per-slot scratch for phase 3: everything a worker touches while turning
/// one node's fault events into (optionally pre-encoded) telemetry.  Under
/// the default emit options a slot is allocated once and reused for every
/// block, so steady-state simulation+encoding allocates nothing per node.
struct NodeSlot {
  telemetry::NodeLog log;
  SessionSimArena sim;
  std::string encoded;         ///< pre-encoded UNPA body (bulk path)
  telemetry::EncodeArena enc;  ///< gather scratch for the batch kernels
  bool pre_encoded = false;
};

/// A node simulated as its own pool task (heavy-first, see phase 3).
struct HeavyNode {
  std::size_t k = 0;  ///< index into the run's owned positions
  NodeSlot slot;
  bool done = false;  ///< guarded by HeavyNodes::mutex
};

/// The heavy nodes of one run and their completion signal.  The destructor
/// waits for every submitted task, so the fleet and slots the tasks touch
/// outlive them, also when a sink throws mid-stream.
struct HeavyNodes {
  std::vector<HeavyNode> nodes;
  std::size_t submitted = 0;
  std::mutex mutex;
  std::condition_variable cv;

  void finish(HeavyNode& node) {
    // Notify under the lock: the waiter may destroy `cv` once it sees done.
    std::lock_guard lock(mutex);
    node.done = true;
    cv.notify_all();
  }
  void wait(const HeavyNode& node) {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&node] { return node.done; });
  }
  ~HeavyNodes() {
    for (std::size_t h = 0; h < submitted; ++h) wait(nodes[h]);
  }
};

}  // namespace

CampaignSummary run_campaign_shard(const CampaignConfig& config,
                                   const ShardSpec& spec,
                                   const std::vector<telemetry::RecordSink*>& sinks,
                                   std::size_t threads,
                                   const CampaignEmitOptions& emit) {
  UNP_REQUIRE(threads >= 1);
  UNP_REQUIRE(spec.count >= 1);
  UNP_REQUIRE(spec.index >= 0 && spec.index < spec.count);

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  // Phases 1-2 build the WHOLE fleet in every shard: the fleet-wide fault
  // generation consumes every node's plan and scanned hours, and
  // re-deriving them is what keeps each shard's random streams
  // bit-identical to the monolithic run's.  Planning is cheap next to
  // session simulation, which is the phase sharding actually divides.
  OpenLoopFleet fleet = build_open_loop_fleet(config, pool.get());
  const std::vector<faults::FaultEvent>& fleet_truth = fleet.ground_truth;
  const auto& nodes = fleet.topology.monitored_nodes();
  const auto& plans = fleet.plans;
  const std::size_t n = nodes.size();
  std::vector<faults::FaultEvent> shard_truth;
  std::vector<NodeAccounting> accounting;

  // Ownership: monitored position j belongs to shard j % count (see
  // shard.hpp).  `owned` holds positions into `nodes`, still ascending.
  std::vector<std::size_t> owned;
  owned.reserve(n / static_cast<std::size_t>(spec.count) + 1);
  for (std::size_t j = 0; j < n; ++j) {
    if (j % static_cast<std::size_t>(spec.count) ==
        static_cast<std::size_t>(spec.index)) {
      owned.push_back(j);
    }
  }

  // The shard summary covers owned nodes only; filtering the time-sorted
  // fleet truth preserves its order, so shard truths interleave back into
  // the monolithic vector.  The monolithic move happens after phase 3 —
  // workers read events out of fleet_truth until the last block is emitted.
  if (!spec.is_monolithic()) {
    std::vector<bool> owned_slot(
        static_cast<std::size_t>(cluster::kStudyNodeSlots), false);
    for (const std::size_t j : owned) {
      owned_slot[static_cast<std::size_t>(cluster::node_index(nodes[j]))] =
          true;
    }
    for (const auto& ev : fleet_truth) {
      if (owned_slot[static_cast<std::size_t>(cluster::node_index(ev.node))]) {
        shard_truth.push_back(ev);
      }
    }
  }

  // Phase 3: per-node session simulation of the owned nodes, streamed out
  // block by block.  Workers fill a block of node logs in parallel; the
  // block is then emitted to every sink in ascending node order and freed,
  // so at most one block of logs (plus the heavy nodes', below) is resident
  // at a time and the stream is identical for any thread count
  // (monitored_nodes() is index-sorted and the ownership filter preserves
  // that order).
  for (auto* sink : sinks) sink->begin_campaign(config.window);

  const std::uint64_t session_seed = fleet.session_seed;
  const std::size_t block = std::max<std::size_t>(threads * 8, 32);
  const telemetry::kernels::EncodeKernels& encode =
      emit.encode != nullptr ? *emit.encode
                             : telemetry::kernels::active_encode_kernels();
  // Pre-encode UNPA bodies in the workers only when some sink will actually
  // consume bytes; record-routing sinks never pay for encoding.
  bool wants_encoded = false;
  if (emit.bulk_node_logs) {
    for (const auto* sink : sinks)
      wants_encoded = wants_encoded || sink->wants_encoded_node_log();
  }

  // Owned index k (into `owned`) -> its node's log in `s`, pre-encoded
  // when some sink wants bytes.
  auto simulate = [&](std::size_t k, NodeSlot& s) {
    const std::size_t j = owned[k];
    const cluster::NodeId node = nodes[j];
    const bool overheating = cluster::Topology::is_overheating_slot(node);
    const auto& indices = fleet.events_of(node);
    if (emit.reuse_buffers) {
      // Zero-copy: simulate straight off the shared fleet-truth events.
      simulate_node_shared_into(config.session, node, plans[j], overheating,
                                session_seed, fleet_truth, indices, s.sim,
                                s.log);
    } else {
      // Legacy churn baseline: deep-copy this node's events (heap word
      // lists included) before simulating, as the pre-arena code did.
      s.sim.events.clear();
      s.sim.events.reserve(indices.size());
      for (const std::uint32_t e : indices)
        s.sim.events.push_back(fleet_truth[e]);
      simulate_node_into(config.session, node, plans[j], overheating,
                         session_seed, s.sim, s.log);
    }
    s.pre_encoded = false;
    if (wants_encoded) {
      s.encoded.clear();
      telemetry::encode_node_log_into(s.log, s.encoded, encode, &s.enc);
      s.pre_encoded = true;
    }
  };
  auto emit_node = [&](std::size_t k, NodeSlot& s) {
    const std::size_t j = owned[k];
    const cluster::NodeId node = nodes[j];
    if (emit.bulk_node_logs) {
      // One EncodedNodeLog shared across sinks: the body is encoded at
      // most once per node (already done in the worker if any sink wants
      // bytes) and spliced — never re-encoded, never re-copied per sink.
      telemetry::EncodedNodeLog enc_log(node, s.log, s.encoded, encode,
                                        &s.enc, s.pre_encoded);
      for (auto* sink : sinks) {
        sink->begin_node(node);
        sink->on_node_log(enc_log);
        sink->end_node(node);
      }
    } else {
      for (auto* sink : sinks) {
        sink->begin_node(node);
        telemetry::replay_node_log(s.log, *sink);
        sink->end_node(node);
      }
    }
    if (!emit.reuse_buffers) s.log = telemetry::NodeLog{};
    accounting[k] = {node, plans[j].scanned_hours(), plans[j].terabyte_hours(),
                     plans[j].sessions.size()};
  };

  // Heavy-first: a node costing more than an even share of the run would
  // hold its block's fork-join, and the serial consumer behind it, for its
  // whole simulation.  Up to threads - 1 such nodes, heaviest first, start
  // as their own pool tasks now (at least one worker stays on the blocks).
  accounting.resize(owned.size());
  HeavyNodes heavy;
  std::vector<HeavyNode*> heavy_of(owned.size(), nullptr);
  if (pool) {
    std::vector<std::uint64_t> cost(owned.size());
    std::uint64_t total_cost = 0;
    for (std::size_t k = 0; k < owned.size(); ++k) {
      cost[k] = node_cost_estimate(fleet, owned[k]);
      total_cost += cost[k];
    }
    std::vector<std::size_t> picked;
    for (std::size_t k = 0; k < owned.size(); ++k) {
      if (cost[k] * threads > total_cost) picked.push_back(k);
    }
    std::stable_sort(picked.begin(), picked.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cost[a] > cost[b];
                     });
    picked.resize(std::min(picked.size(), threads - 1));
    heavy.nodes.resize(picked.size());
    for (std::size_t h = 0; h < picked.size(); ++h) {
      HeavyNode& node = heavy.nodes[h];
      node.k = picked[h];
      heavy_of[node.k] = &node;
      pool->submit([&simulate, &heavy, &node] {
        simulate(node.k, node.slot);
        heavy.finish(node);
      });
      ++heavy.submitted;
    }
  }

  std::vector<NodeSlot> slots;
  if (emit.reuse_buffers) slots.resize(std::min(block, owned.size()));
  for (std::size_t base = 0; base < owned.size(); base += block) {
    const std::size_t count = std::min(block, owned.size() - base);
    if (!emit.reuse_buffers) {
      // Legacy churn baseline: fresh buffers for every block.
      slots.clear();
      slots.resize(count);
    }
    auto simulate_light = [&](std::size_t i) {
      if (heavy_of[base + i] == nullptr) simulate(base + i, slots[i]);
    };
    if (pool) {
      pool->parallel_for(count, simulate_light);
    } else {
      for (std::size_t i = 0; i < count; ++i) simulate_light(i);
    }
    for (std::size_t i = 0; i < count; ++i) {
      HeavyNode* h = heavy_of[base + i];
      if (h == nullptr) {
        emit_node(base + i, slots[i]);
        continue;
      }
      heavy.wait(*h);
      emit_node(base + i, h->slot);
      h->slot = NodeSlot{};  // free the heavy node's buffers right away
    }
  }

  for (auto* sink : sinks) sink->end_campaign();
  if (spec.is_monolithic()) shard_truth = std::move(fleet.ground_truth);
  return CampaignSummary{std::move(fleet.topology), std::move(shard_truth),
                         std::move(accounting)};
}

CampaignSummary run_campaign_streaming(
    const CampaignConfig& config,
    const std::vector<telemetry::RecordSink*>& sinks, std::size_t threads,
    const CampaignEmitOptions& emit) {
  return run_campaign_shard(config, ShardSpec{}, sinks, threads, emit);
}

CampaignResult run_campaign(const CampaignConfig& config, std::size_t threads) {
  telemetry::CampaignArchive archive(config.window);
  CampaignSummary summary = run_campaign_streaming(config, {&archive}, threads);
  return CampaignResult{std::move(summary), std::move(archive)};
}

std::size_t default_campaign_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

const CampaignResult& default_campaign() {
  static const CampaignResult result =
      run_campaign(CampaignConfig{}, default_campaign_threads());
  return result;
}

}  // namespace unp::sim
