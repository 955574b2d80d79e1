#include "policy/hammer.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "policy/loop.hpp"

namespace unp::policy {

namespace {

std::uint64_t row_key(std::uint32_t bank, std::uint64_t row) noexcept {
  return (static_cast<std::uint64_t>(bank) << 48) | row;
}

}  // namespace

HammerMitigationPolicy::HammerMitigationPolicy(Config config)
    : config_(std::move(config)),
      mapping_(dram::mapping::make_mapping_config(config_.mapping)) {}

void HammerMitigationPolicy::on_fault(const analysis::FaultRecord& fault,
                                      const NodeHealth& /*health*/,
                                      std::vector<Action>& actions) {
  const std::uint64_t word = fault.virtual_address / sizeof(Word);
  if (word >= mapping_.total_words()) return;
  const int index = cluster::node_index(fault.node);
  auto it = detectors_.find(index);
  if (it == detectors_.end()) {
    it = detectors_
             .emplace(std::piecewise_construct, std::forward_as_tuple(index),
                      std::forward_as_tuple(mapping_, config_.detector))
             .first;
  }
  if (!it->second.observe(fault.first_seen, word)) return;

  const faults::hammer::DetectedRow& hit = it->second.detections().back();
  ++rows_retired_;
  for (const std::uint64_t page : row_pages(mapping_, hit.bank, hit.row)) {
    Action act;
    act.kind = ActionKind::kRetirePage;
    act.node = fault.node;
    act.time = fault.first_seen;
    act.virtual_address = page << 12;
    actions.push_back(act);
    ++pages_requested_;
  }
}

std::string HammerMitigationPolicy::report() const {
  return "hammer rows retired: " + std::to_string(rows_retired_) +
         " (pages requested: " + std::to_string(pages_requested_) + ")";
}

std::vector<std::uint64_t> row_pages(const dram::mapping::DramMapping& mapping,
                                     std::uint32_t bank, std::uint64_t row) {
  std::vector<std::uint64_t> pages;
  for (std::uint64_t column = 0; column < mapping.columns(); ++column) {
    const std::uint64_t word = mapping.encode({bank, row, column});
    const std::uint64_t page = (word * sizeof(Word)) >> 12;
    if (!std::binary_search(pages.begin(), pages.end(), page)) {
      pages.insert(std::upper_bound(pages.begin(), pages.end(), page), page);
    }
  }
  return pages;
}

namespace {

/// The row detector's step: replay a fresh detector over what the latest
/// round observed and retire every newly-triggered row — the scanner unmaps
/// its pages, so its words vanish from the observable fault events.
bool retirement_step(const HammerLoopConfig& config,
                     const dram::mapping::DramMapping& mapping,
                     NodeRound& round, std::set<std::uint64_t>& retired_keys,
                     std::vector<RetiredRow>& retired) {
  faults::hammer::HammerRowDetector detector(mapping, config.detector);
  for (const auto& f : round.faults) {
    const std::uint64_t word = f.virtual_address / sizeof(Word);
    if (word >= mapping.total_words()) continue;
    detector.observe(f.first_seen, word);
  }

  bool actuated = false;
  for (const auto& hit : detector.detections()) {
    if (!retired_keys.insert(row_key(hit.bank, hit.row)).second) continue;
    retired.push_back(RetiredRow{.node = round.node, .bank = hit.bank,
                                 .row = hit.row,
                                 .trigger_time = hit.trigger_time});
    actuated = true;
  }
  if (!actuated) return false;
  for (auto& ev : round.events) {
    std::erase_if(ev.words, [&](const faults::WordFault& w) {
      if (w.word_index >= mapping.total_words()) return false;
      const dram::mapping::DramCoordinate c = mapping.decode(w.word_index);
      return retired_keys.contains(row_key(c.bank, c.row));
    });
  }
  std::erase_if(round.events,
                [](const faults::FaultEvent& ev) { return ev.words.empty(); });
  return true;
}

}  // namespace

HammerMitigationResult run_hammer_mitigation(const HammerLoopConfig& config) {
  UNP_REQUIRE(config.threads >= 1);
  UNP_REQUIRE(config.max_rounds >= 1);
  UNP_REQUIRE(config.campaign.faults.enable_hammer);
  const dram::mapping::DramMapping mapping(dram::mapping::make_mapping_config(
      config.campaign.faults.hammer.mapping));

  // Open pass and pathological filter only (see header: no loudest-node
  // exclusion — hammered nodes are loud by design), then the closed loop
  // over every node with fault events.
  ClosedLoopDriver driver(config.campaign, config.extraction, config.threads);
  const sim::OpenLoopFleet& fleet = driver.fleet;
  const auto& nodes = driver.nodes;
  const std::size_t n = nodes.size();
  std::vector<std::set<std::uint64_t>> retired_keys(n);
  std::vector<std::vector<RetiredRow>> retired(n);
  const std::vector<NodeRound> converged = driver.converge(
      [&](std::size_t i) { return !fleet.events_of(nodes[i]).empty(); },
      [&](std::size_t i, NodeRound& round) {
        return retirement_step(config, mapping, round, retired_keys[i],
                               retired[i]);
      },
      config.max_rounds);

  HammerMitigationResult result;
  result.excluded_nodes = driver.excluded_nodes;

  // Score against ground truth, in node order for determinism.
  for (std::size_t i = 0; i < n; ++i) {
    if (driver.excluded[i]) continue;

    std::set<std::uint64_t> hammered_rows;
    std::map<std::uint64_t, std::set<std::uint64_t>> dense_words;
    for (const std::uint32_t e : fleet.events_of(nodes[i])) {
      const faults::FaultEvent& ev = fleet.ground_truth[e];
      for (const auto& w : ev.words) {
        if (w.word_index >= mapping.total_words()) continue;
        const dram::mapping::DramCoordinate c = mapping.decode(w.word_index);
        const std::uint64_t key = row_key(c.bank, c.row);
        if (ev.mechanism == faults::Mechanism::kRowhammer) {
          hammered_rows.insert(key);
        } else {
          dense_words[key].insert(w.word_index);
        }
      }
    }
    result.true_victim_rows += hammered_rows.size();

    const NodeRound& closed = converged[i];
    if (closed.rounds > 0) {
      result.open_observed += driver.open_faults[i].size();
      result.closed_observed += closed.faults.size();
    }
    result.max_rounds_used = std::max(result.max_rounds_used, closed.rounds);
    for (RetiredRow& r : retired[i]) {
      const std::uint64_t key = row_key(r.bank, r.row);
      if (hammered_rows.contains(key)) {
        r.kind = RetiredRow::Kind::kTrue;
        ++result.retired_true;
      } else if (static_cast<int>(dense_words[key].size()) >=
                 config.detector.min_distinct_words) {
        r.kind = RetiredRow::Kind::kCollateral;
        ++result.retired_collateral;
      } else {
        r.kind = RetiredRow::Kind::kSpurious;
        ++result.retired_spurious;
      }
      result.retired.push_back(r);
    }
  }
  result.rows_retired = result.retired.size();
  result.absorbed_faults = result.open_observed - result.closed_observed;
  result.recall = result.true_victim_rows == 0
                      ? 1.0
                      : static_cast<double>(result.retired_true) /
                            static_cast<double>(result.true_victim_rows);
  return result;
}

}  // namespace unp::policy
