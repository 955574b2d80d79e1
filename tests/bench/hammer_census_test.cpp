// The Rowhammer census behind `unp_report --ext hammer`, over the seed-42
// default campaign: the per-geometry counts and the lpddr3:mb ledger are
// pinned, and the census (and the replay sections it shares the report's
// pool with) must not depend on the thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "util/campaign_cache.hpp"
#include "util/figures.hpp"

namespace unp::bench {
namespace {

std::string render(void (*print)(const analysis::ExtractionResult&, FILE*,
                                 ThreadPool*),
                   const analysis::ExtractionResult& extraction,
                   ThreadPool* pool) {
  char* buf = nullptr;
  std::size_t len = 0;
  FILE* out = open_memstream(&buf, &len);
  UNP_REQUIRE(out != nullptr);
  print(extraction, out, pool);
  std::fclose(out);
  std::string text(buf, len);
  std::free(buf);
  return text;
}

TEST(HammerCensus, PinsSeed42Counts) {
  const HammerCensus census = hammer_census(default_data().extraction);
  struct Expected {
    const char* geometry;
    std::uint64_t rows_triggered, nodes_triggered, absorbable;
    int max_words;
  };
  const Expected expected[] = {
      {"ddr3:1ch", 614, 1, 1276, 35}, {"ddr3:2ch", 201, 1, 262, 20},
      {"ddr4:1ch", 608, 1, 1207, 35}, {"ddr4:2ch", 188, 1, 259, 22},
      {"lpddr3:mb", 604, 1, 1141, 35},
  };
  ASSERT_EQ(census.geometries.size(), std::size(expected));
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    const HammerGeometryCensus& got = census.geometries[i];
    SCOPED_TRACE(got.geometry);
    EXPECT_EQ(got.geometry, expected[i].geometry);
    EXPECT_EQ(got.rows_triggered, expected[i].rows_triggered);
    EXPECT_EQ(got.nodes_triggered, expected[i].nodes_triggered);
    EXPECT_EQ(got.absorbable, expected[i].absorbable);
    EXPECT_EQ(got.max_words, expected[i].max_words);
  }
  EXPECT_EQ(census.ledger.size(), 604u);
  EXPECT_EQ(census.ledger_absorbable, 1141u);
}

TEST(HammerCensus, IdenticalOnThePool) {
  const analysis::ExtractionResult& extraction = default_data().extraction;
  ThreadPool pool(4);
  const HammerCensus serial = hammer_census(extraction);
  const HammerCensus pooled = hammer_census(extraction, &pool);
  ASSERT_EQ(pooled.geometries.size(), serial.geometries.size());
  for (std::size_t i = 0; i < serial.geometries.size(); ++i) {
    EXPECT_EQ(pooled.geometries[i].geometry, serial.geometries[i].geometry);
    EXPECT_EQ(pooled.geometries[i].rows_triggered,
              serial.geometries[i].rows_triggered);
    EXPECT_EQ(pooled.geometries[i].nodes_triggered,
              serial.geometries[i].nodes_triggered);
    EXPECT_EQ(pooled.geometries[i].absorbable, serial.geometries[i].absorbable);
    EXPECT_EQ(pooled.geometries[i].max_words, serial.geometries[i].max_words);
  }
  ASSERT_EQ(pooled.ledger.size(), serial.ledger.size());
  for (std::size_t i = 0; i < serial.ledger.size(); ++i) {
    EXPECT_EQ(pooled.ledger[i].node, serial.ledger[i].node);
    EXPECT_EQ(pooled.ledger[i].row.bank, serial.ledger[i].row.bank);
    EXPECT_EQ(pooled.ledger[i].row.row, serial.ledger[i].row.row);
    EXPECT_EQ(pooled.ledger[i].row.trigger_time,
              serial.ledger[i].row.trigger_time);
    EXPECT_EQ(pooled.ledger[i].row.distinct_words,
              serial.ledger[i].row.distinct_words);
  }
  EXPECT_EQ(pooled.ledger_absorbable, serial.ledger_absorbable);

  EXPECT_EQ(render(print_ext_hammer, extraction, &pool),
            render(print_ext_hammer, extraction, nullptr));
  EXPECT_EQ(render(print_ext_ecc, extraction, &pool),
            render(print_ext_ecc, extraction, nullptr));
}

}  // namespace
}  // namespace unp::bench
