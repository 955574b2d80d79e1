// Quickstart: simulate one month of the unprotected cluster, extract the
// independent faults, and print the numbers a reliability engineer would
// look at first.
//
// This walks the library's central pipeline:
//   CampaignConfig -> run_campaign -> CampaignArchive
//                  -> extract_faults -> FaultRecords
//                  -> metrics / regime / the policy engine
#include <cstdio>
#include <vector>

#include "analysis/bitstats.hpp"
#include "analysis/extraction.hpp"
#include "analysis/metrics.hpp"
#include "analysis/regime.hpp"
#include "policy/builtin.hpp"
#include "sim/campaign.hpp"

int main() {
  using namespace unp;

  // 1. Configure a short campaign: September 2015, when the weak-bit nodes
  //    were active.  Everything else keeps the calibrated defaults.
  sim::CampaignConfig config;
  config.seed = 7;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 10, 1, 0, 0, 0});

  std::printf("running a 30-day campaign over %d candidate nodes...\n",
              cluster::kStudyNodeSlots);
  const sim::CampaignResult campaign = sim::run_campaign(config);

  // 2. Extraction: raw logs -> independent faults (Section II-C rules).
  const analysis::ExtractionResult extraction =
      analysis::extract_faults(campaign.archive);

  const analysis::HeadlineStats stats =
      analysis::headline_stats(campaign.archive, extraction);
  std::printf("\n-- campaign summary ------------------------------------\n");
  std::printf("monitored nodes      : %d\n", stats.monitored_nodes);
  std::printf("node-hours scanned   : %.0f\n", stats.monitored_node_hours);
  std::printf("terabyte-hours       : %.0f\n", stats.terabyte_hours);
  std::printf("raw ERROR logs       : %llu\n",
              static_cast<unsigned long long>(stats.raw_logs));
  std::printf("independent faults   : %llu\n",
              static_cast<unsigned long long>(stats.independent_faults));

  // 3. Who is failing?  Direction and spatial concentration.
  const analysis::DirectionStats direction =
      analysis::direction_stats(extraction.faults);
  std::printf("\n-- corruption character --------------------------------\n");
  std::printf("bit flips 1->0       : %.1f%%\n",
              100.0 * direction.one_to_zero_fraction());

  const analysis::TopNodeSeries top =
      analysis::top_node_series(extraction.faults, config.window);
  for (std::size_t k = 0; k < top.nodes.size(); ++k) {
    std::printf("top node %zu           : %s (%llu faults)\n", k + 1,
                cluster::node_name(top.nodes[k]).c_str(),
                static_cast<unsigned long long>(top.node_totals[k]));
  }
  std::printf("all other nodes      : %llu faults\n",
              static_cast<unsigned long long>(top.rest_total));

  // 4. Regimes and a quarantine what-if.
  const analysis::AutoRegime regimes = analysis::classify_regime_excluding_loudest(
      extraction.faults, config.window);
  std::printf("\n-- regimes (loudest node excluded) ---------------------\n");
  std::printf("normal days          : %llu (MTBF %.1f h)\n",
              static_cast<unsigned long long>(regimes.regime.normal_days),
              regimes.regime.normal_mtbf_hours);
  std::printf("degraded days        : %llu (MTBF %.2f h)\n",
              static_cast<unsigned long long>(regimes.regime.degraded_days),
              regimes.regime.degraded_mtbf_hours);

  // The what-if is a 10-day threshold policy replayed through the policy
  // engine over the finished faults, loudest node left out of the ledger.
  std::vector<cluster::NodeId> excluded;
  if (regimes.excluded) excluded.push_back(*regimes.excluded);
  const policy::QuarantineOutcome outcome = policy::replay_quarantine_periods(
      config.window, extraction.faults, {10}, excluded).front();
  std::printf("\n-- 10-day quarantine what-if ---------------------------\n");
  std::printf("errors reaching users: %llu (was %llu)\n",
              static_cast<unsigned long long>(outcome.counted_errors),
              static_cast<unsigned long long>(outcome.counted_errors +
                                              outcome.suppressed_errors));
  std::printf("system MTBF          : %.1f h\n", outcome.system_mtbf_hours);
  std::printf("availability lost    : %.3f%%\n", 100.0 * outcome.availability_loss);
  return 0;
}
