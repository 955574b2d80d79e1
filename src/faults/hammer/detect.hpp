// Spatial clustering detector for hammered rows.
//
// Consumes one node's observed faults as (time, word index) pairs in
// nondecreasing time order, maps each to DRAM coordinates, and flags a
// (bank, row) once `min_distinct_words` *distinct* words of that row have
// faulted within a trailing time window.  Time-driven mechanisms scatter
// faults uniformly over ~2^21 (bank, row) cells, so same-row multiplicity
// inside a short window is an access-dependent signature; the thresholds
// below make accidental triggers from the background mechanisms
// negligible while a tripped victim row (a burst of 16+ flips) is caught
// with near certainty.
//
// The detector is a pure function of the observed fault stream - the same
// class drives the live HammerMitigationPolicy, the closed-loop runner and
// the `unp_report --ext hammer` census, so all three agree by construction.
//
// State is flat: an open-addressed row table (key -> RowState), one
// open-addressed set of every distinct word the detector has seen, and one
// arena holding each row's trailing window in a fixed slot of
// max(1, min_distinct_words) sightings.  decode() is a function, so a word
// new to the detector is new to its row and a per-row counter gives the
// row's distinct-word census.  A new row costs no allocation of its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/civil_time.hpp"
#include "dram/mapping/mapping.hpp"

namespace unp::faults::hammer {

struct DetectorConfig {
  int min_distinct_words = 3;
  /// Trailing window within which the distinct words must cluster.
  std::int64_t window_seconds = 6 * 3600;
};

struct DetectedRow {
  std::uint32_t bank = 0;
  std::uint64_t row = 0;
  TimePoint trigger_time = 0;
  int distinct_words = 0;  ///< total distinct words seen by end of stream
};

class HammerRowDetector {
 public:
  HammerRowDetector(const dram::mapping::DramMapping& mapping,
                    const DetectorConfig& config);

  /// Feed one observed fault (times nondecreasing; `word_index` below
  /// mapping().total_words(), else ContractViolation).  Returns true when
  /// this observation newly triggers its row.
  bool observe(TimePoint time, std::uint64_t word_index);

  /// Rows that crossed the threshold, in trigger order.
  [[nodiscard]] const std::vector<DetectedRow>& detections() const noexcept {
    return detections_;
  }

  /// Observed faults that landed on an already-triggered row strictly
  /// after its trigger (what retirement would have absorbed).
  [[nodiscard]] std::uint64_t absorbable_faults() const noexcept {
    return absorbable_;
  }

  [[nodiscard]] std::uint64_t observed_faults() const noexcept {
    return observed_;
  }

  [[nodiscard]] const dram::mapping::DramMapping& mapping() const noexcept {
    return mapping_;
  }

 private:
  /// One observation inside a row's trailing window.
  struct Sighting {
    TimePoint time = 0;
    std::uint64_t word = 0;
  };

  struct RowState {
    std::uint64_t key = 0;          ///< bank<<48 | row
    std::uint32_t ordinal = 0;      ///< insertion order: window slot index
    std::int32_t window_size = 0;   ///< live sightings in the window slot
    std::int32_t distinct_words = 0;  ///< 0 only in an empty table slot
    std::int32_t detection_index = -1;  ///< into detections_, -1 until triggered
  };

  /// The row's table entry, inserted (distinct_words 0) when absent.
  RowState& find_or_insert_row(std::uint64_t key);
  /// Adds `word` to the distinct-word set; true when it was not there.
  bool insert_word(std::uint64_t word);

  const dram::mapping::DramMapping& mapping_;
  DetectorConfig config_;
  std::size_t window_slots_;        ///< max(1, min_distinct_words)
  std::vector<RowState> rows_;      ///< power-of-two size, linear probing
  std::size_t row_count_ = 0;
  /// Power-of-two size, linear probing; empty slots hold ~0, which is
  /// never a legal word index (total_words() <= 2^62).
  std::vector<std::uint64_t> words_;
  std::size_t word_count_ = 0;
  std::vector<Sighting> windows_;   ///< window_slots_ sightings per row
  std::vector<DetectedRow> detections_;
  std::uint64_t absorbable_ = 0;
  std::uint64_t observed_ = 0;
};

}  // namespace unp::faults::hammer
