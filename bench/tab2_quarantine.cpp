// Table II: system MTBF for different quarantine periods.
//
// Paper: period 0 -> 4779 errors, MTBF 2.1 h; period 30 d -> 65 errors,
// 180 node-days quarantined, MTBF 156.9 h; availability loss <0.1%.
// MTBF improves by nearly three orders of magnitude.
//
// The sweep is one threshold-policy shadow per period, replayed through the
// policy engine over the finished extraction.  Rendering lives in
// bench::print_tab2, shared with `unp_policy --sweep` (the same engine fed
// the live record stream), so both print byte-identically.
#include "analysis/regime.hpp"
#include "policy/builtin.hpp"
#include "util/campaign_cache.hpp"
#include "util/figures.hpp"

int main() {
  using namespace unp;
  const bench::CampaignData& data = bench::default_data();
  const CampaignWindow& window = data.campaign->archive.window();

  // Like the paper, drop the permanently failing node first.
  const analysis::AutoRegime regimes =
      analysis::classify_regime_excluding_loudest(data.extraction.faults, window);
  std::vector<cluster::NodeId> excluded;
  if (regimes.excluded) excluded.push_back(*regimes.excluded);

  bench::print_tab2(policy::replay_quarantine_periods(
      window, data.extraction.faults, {0, 5, 10, 15, 20, 25, 30}, excluded));
  return 0;
}
