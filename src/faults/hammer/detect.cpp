#include "faults/hammer/detect.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/require.hpp"

namespace unp::faults::hammer {

namespace {

constexpr std::uint64_t kNoWord = std::numeric_limits<std::uint64_t>::max();
constexpr std::size_t kInitialSlots = 16;

/// Home slot of `key` in a power-of-two table of `slots` entries
/// (Fibonacci hashing: the product's top bits mix every key bit).
std::size_t home_slot(std::uint64_t key, std::size_t slots) noexcept {
  const int bits = std::countr_zero(slots);
  return bits == 0 ? 0
                   : static_cast<std::size_t>(
                         (key * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
}

/// Table size after one more entry: doubled once the load would pass 1/2.
std::size_t grown_size(std::size_t count, std::size_t slots) noexcept {
  if (slots == 0) return kInitialSlots;
  return 2 * (count + 1) > slots ? 2 * slots : slots;
}

}  // namespace

HammerRowDetector::HammerRowDetector(const dram::mapping::DramMapping& mapping,
                                     const DetectorConfig& config)
    : mapping_(mapping),
      config_(config),
      window_slots_(static_cast<std::size_t>(
          std::max(1, config.min_distinct_words))) {}

HammerRowDetector::RowState& HammerRowDetector::find_or_insert_row(
    std::uint64_t key) {
  const std::size_t slots = grown_size(row_count_, rows_.size());
  if (slots != rows_.size()) {
    std::vector<RowState> old(slots);
    old.swap(rows_);
    for (const RowState& row : old) {
      if (row.distinct_words == 0) continue;
      std::size_t i = home_slot(row.key, slots);
      while (rows_[i].distinct_words != 0) i = (i + 1) & (slots - 1);
      rows_[i] = row;
    }
  }
  std::size_t i = home_slot(key, slots);
  for (;; i = (i + 1) & (slots - 1)) {
    RowState& row = rows_[i];
    if (row.distinct_words == 0) break;
    if (row.key == key) return row;
  }
  RowState& row = rows_[i];
  row.key = key;
  row.ordinal = static_cast<std::uint32_t>(row_count_++);
  windows_.resize(windows_.size() + window_slots_);
  return row;
}

bool HammerRowDetector::insert_word(std::uint64_t word) {
  const std::size_t slots = grown_size(word_count_, words_.size());
  if (slots != words_.size()) {
    std::vector<std::uint64_t> old(slots, kNoWord);
    old.swap(words_);
    for (const std::uint64_t w : old) {
      if (w == kNoWord) continue;
      std::size_t i = home_slot(w, slots);
      while (words_[i] != kNoWord) i = (i + 1) & (slots - 1);
      words_[i] = w;
    }
  }
  for (std::size_t i = home_slot(word, slots);; i = (i + 1) & (slots - 1)) {
    if (words_[i] == word) return false;
    if (words_[i] == kNoWord) {
      words_[i] = word;
      ++word_count_;
      return true;
    }
  }
}

bool HammerRowDetector::observe(TimePoint time, std::uint64_t word_index) {
  UNP_REQUIRE(word_index < mapping_.total_words());
  ++observed_;
  const dram::mapping::DramCoordinate c = mapping_.decode(word_index);
  const bool new_word = insert_word(word_index);
  RowState& state = find_or_insert_row((std::uint64_t{c.bank} << 48) | c.row);
  // decode() is a function: a word new to the detector is new to its row,
  // and a row inserted just now always sees a new word.
  if (new_word) ++state.distinct_words;

  if (state.detection_index >= 0) {
    DetectedRow& detection =
        detections_[static_cast<std::size_t>(state.detection_index)];
    if (time > detection.trigger_time) ++absorbable_;
    detection.distinct_words = state.distinct_words;
    return false;
  }

  // Trailing window: drop stale sightings, then append the word if it is
  // new within the window (a repeated word refreshes its timestamp).
  Sighting* window = windows_.data() + state.ordinal * window_slots_;
  const TimePoint horizon = time - config_.window_seconds;
  std::int32_t live = 0;
  bool fresh = true;
  for (std::int32_t k = 0; k < state.window_size; ++k) {
    if (window[k].time < horizon) continue;
    window[live] = window[k];
    if (window[live].word == word_index) {
      window[live].time = time;
      fresh = false;
    }
    ++live;
  }
  // An untriggered row holds fewer than min_distinct_words sightings, so
  // the append stays inside its window_slots_ slot.
  if (fresh) window[live++] = {time, word_index};
  state.window_size = live;
  if (live < config_.min_distinct_words) return false;
  state.detection_index = static_cast<std::int32_t>(detections_.size());
  detections_.push_back({c.bank, c.row, time, state.distinct_words});
  return true;
}

}  // namespace unp::faults::hammer
