// Checks rmibench's statistics against hand-worked values and against
// what Python's statistics module reports for the same inputs.
#include "stats.hpp"

#include <gtest/gtest.h>

namespace rmibench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);  // mean of the middle pair
  EXPECT_DOUBLE_EQ(percentile(v, 0.9), 37.0);  // rank 2.7
}

TEST(Percentile, SortsItsInputAndHandlesOneSample) {
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(percentile({7}, 0.99), 7.0);
}

TEST(Percentile, TailOfAHundredSamples) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.9), 90.1);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.01);
}

TEST(Percentile, RejectsEmptyInputAndBadFractions) {
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1, 2}, 1.5), std::invalid_argument);
}

// Expected values: (q[2] - q[0]) / statistics.median(v) with
// q = statistics.quantiles(v, n=4).
TEST(QuartileSpread, MatchesPythonStatisticsQuantiles) {
  EXPECT_DOUBLE_EQ(quartile_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0);
  EXPECT_DOUBLE_EQ(quartile_spread({3, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(quartile_spread({10, 10, 10, 11}), 0.075);
  EXPECT_DOUBLE_EQ(quartile_spread({2.5, 3.5, 1.25, 9.0, 4.0, 4.0, 7.5}), 1.25);
  // Two values: Python extrapolates past both ends (q = [0, 3, 6]).
  EXPECT_DOUBLE_EQ(quartile_spread({5, 1}), 2.0);
}

TEST(QuartileSpread, IdenticalRunsHaveNoSpread) {
  EXPECT_DOUBLE_EQ(quartile_spread({4.2, 4.2, 4.2, 4.2, 4.2}), 0.0);
}

TEST(QuartileSpread, RejectsTooFewValuesAndZeroMedian) {
  EXPECT_THROW(quartile_spread({1}), std::invalid_argument);
  EXPECT_THROW(quartile_spread({-1, 0, 1}), std::invalid_argument);
}

TEST(Residual, SubtractsEveryMeasuredLayer) {
  LayerSplit s;
  s.wall_us = 25.0;
  s.serialize_us = 2.0;
  s.deserialize_us = 3.5;
  s.handler_us = 0.5;
  s.frames = 2.0;
  s.encode_ns = 400.0;
  s.decode_ns = 600.0;
  // 25 - 2 - 3.5 - 0.5 - 2 * (400 + 600) / 1000
  EXPECT_DOUBLE_EQ(residual_us(s), 17.0);
}

TEST(Residual, IsNotClampedWhenPartsOverCount) {
  LayerSplit s;
  s.wall_us = 1.0;
  s.serialize_us = 2.0;
  EXPECT_DOUBLE_EQ(residual_us(s), -1.0);
}

}  // namespace
}  // namespace rmibench
