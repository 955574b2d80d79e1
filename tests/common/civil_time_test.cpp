#include "common/civil_time.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/require.hpp"

namespace unp {
namespace {

TEST(CivilTime, EpochRoundTrip) {
  EXPECT_EQ(days_from_civil(1970, 1, 1), 0);
  const CivilDateTime c = civil_from_days(0);
  EXPECT_EQ(c.year, 1970);
  EXPECT_EQ(c.month, 1);
  EXPECT_EQ(c.day, 1);
}

TEST(CivilTime, KnownDates) {
  EXPECT_EQ(days_from_civil(2015, 2, 1), 16467);
  EXPECT_EQ(days_from_civil(2016, 2, 29), 16860);  // leap day exists
  EXPECT_EQ(days_from_civil(2000, 3, 1), 11017);
}

TEST(CivilTime, RoundTripAllCampaignDays) {
  for (std::int64_t d = days_from_civil(2015, 1, 1);
       d <= days_from_civil(2016, 12, 31); ++d) {
    const CivilDateTime c = civil_from_days(d);
    EXPECT_EQ(days_from_civil(c.year, c.month, c.day), d);
  }
}

TEST(CivilTime, ToFromCivilUtc) {
  const CivilDateTime c{2015, 6, 15, 13, 45, 12};
  EXPECT_EQ(to_civil_utc(from_civil_utc(c)), c);
}

TEST(CivilTime, WeekdayKnownValues) {
  EXPECT_EQ(weekday_from_days(days_from_civil(1970, 1, 1)), 4);   // Thursday
  EXPECT_EQ(weekday_from_days(days_from_civil(2015, 2, 1)), 0);   // Sunday
  EXPECT_EQ(weekday_from_days(days_from_civil(2016, 2, 29)), 1);  // Monday
}

TEST(CivilTime, LeapYears) {
  EXPECT_TRUE(is_leap_year(2016));
  EXPECT_TRUE(is_leap_year(2000));
  EXPECT_FALSE(is_leap_year(2015));
  EXPECT_FALSE(is_leap_year(1900));
}

TEST(BarcelonaClock, WinterIsCet) {
  const TimePoint jan = from_civil_utc({2015, 1, 15, 12, 0, 0});
  EXPECT_EQ(BarcelonaClock::utc_offset(jan), kSecondsPerHour);
  EXPECT_EQ(BarcelonaClock::to_local(jan).hour, 13);
}

TEST(BarcelonaClock, SummerIsCest) {
  const TimePoint jul = from_civil_utc({2015, 7, 15, 12, 0, 0});
  EXPECT_EQ(BarcelonaClock::utc_offset(jul), 2 * kSecondsPerHour);
  EXPECT_EQ(BarcelonaClock::to_local(jul).hour, 14);
}

TEST(BarcelonaClock, DstTransition2015) {
  // DST 2015 started on Sunday March 29 at 01:00 UTC.
  const TimePoint before = from_civil_utc({2015, 3, 29, 0, 59, 59});
  const TimePoint after = from_civil_utc({2015, 3, 29, 1, 0, 0});
  EXPECT_EQ(BarcelonaClock::utc_offset(before), kSecondsPerHour);
  EXPECT_EQ(BarcelonaClock::utc_offset(after), 2 * kSecondsPerHour);
  // ...and ended on Sunday October 25 at 01:00 UTC.
  const TimePoint oct_before = from_civil_utc({2015, 10, 25, 0, 59, 59});
  const TimePoint oct_after = from_civil_utc({2015, 10, 25, 1, 0, 0});
  EXPECT_EQ(BarcelonaClock::utc_offset(oct_before), 2 * kSecondsPerHour);
  EXPECT_EQ(BarcelonaClock::utc_offset(oct_after), kSecondsPerHour);
}

TEST(BarcelonaClock, LocalHourWrapsMidnight) {
  const TimePoint t = from_civil_utc({2015, 1, 15, 23, 30, 0});  // 00:30 local
  EXPECT_NEAR(BarcelonaClock::local_hour(t), 0.5, 1e-9);
  EXPECT_EQ(BarcelonaClock::local_day_index(t),
            days_from_civil(2015, 1, 16));
}

TEST(CampaignWindow, ThirteenMonths) {
  const CampaignWindow w;
  EXPECT_EQ(w.duration_days(), 394);  // Feb 2015 through Feb 2016 inclusive
  EXPECT_TRUE(w.contains(from_civil_utc({2015, 8, 1, 0, 0, 0})));
  EXPECT_FALSE(w.contains(from_civil_utc({2016, 3, 1, 0, 0, 0})));
}

TEST(CampaignWindow, DayOfCampaign) {
  const CampaignWindow w;
  EXPECT_EQ(w.day_of_campaign(w.start), 0);
  EXPECT_EQ(w.day_of_campaign(from_civil_utc({2015, 2, 2, 10, 0, 0})), 1);
}

TEST(Iso8601, RoundTrip) {
  const TimePoint t = from_civil_utc({2015, 11, 3, 7, 8, 9});
  EXPECT_EQ(format_iso8601(t), "2015-11-03T07:08:09");
  EXPECT_EQ(parse_iso8601("2015-11-03T07:08:09"), t);
}

TEST(Iso8601, RejectsMalformed) {
  EXPECT_THROW((void)parse_iso8601("not a date"), ContractViolation);
  EXPECT_THROW((void)parse_iso8601("2015-13-01T00:00:00"), ContractViolation);
  EXPECT_THROW((void)parse_iso8601("2015-01-01"), ContractViolation);
}

// The DST rule recomputed from scratch for every instant: the civil year of
// t in UTC, DST from 01:00 UTC on the last Sunday of March to 01:00 UTC on
// the last Sunday of October.
std::int64_t reference_utc_offset(TimePoint t) {
  const int year = to_civil_utc(t).year;
  const auto last_sunday = [year](int month) {
    const std::int64_t last =
        days_from_civil(month == 12 ? year + 1 : year, month == 12 ? 1 : month + 1, 1) - 1;
    return last - weekday_from_days(last);
  };
  const TimePoint start = last_sunday(3) * kSecondsPerDay + kSecondsPerHour;
  const TimePoint end = last_sunday(10) * kSecondsPerDay + kSecondsPerHour;
  return t >= start && t < end ? 2 * kSecondsPerHour : kSecondsPerHour;
}

// utc_offset memoizes each thread's last year.  From 4 threads at once,
// each visiting the years in its own order, it must equal the rule at
// every hour of 1970-2100 and one second either side of every switch.
TEST(BarcelonaClock, MemoizedOffsetMatchesRuleFromFourThreads) {
  constexpr int kFirst = 1970;
  constexpr int kYears = 131;  // 1970..2100; prime, so k*i mod 131 permutes
  std::atomic<long> mismatches{0};
  std::atomic<long> checked{0};
  std::vector<std::thread> threads;
  for (int k = 0; k < 4; ++k) {
    threads.emplace_back([&, k] {
      long bad = 0;
      long seen = 0;
      for (int i = 0; i < kYears; ++i) {
        const int year = kFirst + (i * (2 * k + 1) + k) % kYears;
        const TimePoint from = from_civil_utc({year, 1, 1, 0, 0, 0});
        const TimePoint to = from_civil_utc({year + 1, 1, 1, 0, 0, 0});
        for (TimePoint t = from; t < to; t += kSecondsPerHour) {
          bad += BarcelonaClock::utc_offset(t) != reference_utc_offset(t);
          ++seen;
        }
        // Around both switches of the year (their hour is on the grid).
        for (TimePoint t = from; t < to; t += kSecondsPerHour) {
          if (reference_utc_offset(t) == reference_utc_offset(t - 1)) continue;
          for (const TimePoint probe : {t - 1, t, t + 1}) {
            bad += BarcelonaClock::utc_offset(probe) !=
                   reference_utc_offset(probe);
            ++seen;
          }
        }
      }
      mismatches += bad;
      checked += seen;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(checked.load(), 4L * 131 * 8760);
}

}  // namespace
}  // namespace unp
