#include "stats/timeseries.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <vector>

#include "core/contracts.h"

namespace lsm::stats {
namespace {

TEST(BinEventCounts, BasicBinning) {
    const std::vector<seconds_t> events = {0, 5, 9, 10, 25};
    const auto counts = bin_event_counts(events, 10, 30);
    ASSERT_EQ(counts.size(), 3U);
    EXPECT_DOUBLE_EQ(counts[0], 3.0);
    EXPECT_DOUBLE_EQ(counts[1], 1.0);
    EXPECT_DOUBLE_EQ(counts[2], 1.0);
}

TEST(BinEventCounts, IgnoresOutOfWindow) {
    const std::vector<seconds_t> events = {-1, 30, 31, 5};
    const auto counts = bin_event_counts(events, 10, 30);
    EXPECT_DOUBLE_EQ(counts[0], 1.0);
    EXPECT_DOUBLE_EQ(counts[1] + counts[2], 0.0);
}

TEST(BinEventCounts, PartialLastBin) {
    const std::vector<seconds_t> events = {24};
    const auto counts = bin_event_counts(events, 10, 25);
    ASSERT_EQ(counts.size(), 3U);  // ceil(25/10)
    EXPECT_DOUBLE_EQ(counts[2], 1.0);
}

TEST(ConcurrencySeries, SingleInterval) {
    const std::vector<interval> iv = {{5, 25}};
    const auto series = concurrency_series(iv, 10, 40);
    // Samples at t=0,10,20,30: active during [5,25) -> t=10,20.
    ASSERT_EQ(series.size(), 4U);
    EXPECT_DOUBLE_EQ(series[0], 0.0);
    EXPECT_DOUBLE_EQ(series[1], 1.0);
    EXPECT_DOUBLE_EQ(series[2], 1.0);
    EXPECT_DOUBLE_EQ(series[3], 0.0);
}

TEST(ConcurrencySeries, OverlapsAdd) {
    const std::vector<interval> iv = {{0, 30}, {10, 20}, {10, 40}};
    const auto series = concurrency_series(iv, 10, 40);
    EXPECT_DOUBLE_EQ(series[0], 1.0);
    EXPECT_DOUBLE_EQ(series[1], 3.0);
    EXPECT_DOUBLE_EQ(series[2], 2.0);  // [10,20) ended
    EXPECT_DOUBLE_EQ(series[3], 1.0);
}

TEST(ConcurrencySeries, BoundaryExclusiveEnd) {
    const std::vector<interval> iv = {{0, 10}};
    const auto series = concurrency_series(iv, 10, 20);
    EXPECT_DOUBLE_EQ(series[0], 1.0);
    EXPECT_DOUBLE_EQ(series[1], 0.0);  // ended exactly at sample 10
}

TEST(MeanConcurrencySeries, TimeAverageWithinBin) {
    // Active 5 s of a 10 s bin -> mean 0.5.
    const std::vector<interval> iv = {{0, 5}};
    const auto series = mean_concurrency_series(iv, 10, 20);
    EXPECT_DOUBLE_EQ(series[0], 0.5);
    EXPECT_DOUBLE_EQ(series[1], 0.0);
}

TEST(MeanConcurrencySeries, SpanningIntervals) {
    const std::vector<interval> iv = {{5, 25}};
    const auto series = mean_concurrency_series(iv, 10, 30);
    EXPECT_DOUBLE_EQ(series[0], 0.5);
    EXPECT_DOUBLE_EQ(series[1], 1.0);
    EXPECT_DOUBLE_EQ(series[2], 0.5);
}

TEST(MeanConcurrencySeries, ConservesActiveSeconds) {
    const std::vector<interval> iv = {{3, 47}, {10, 90}, {55, 60}};
    const seconds_t bin = 10, horizon = 100;
    const auto series = mean_concurrency_series(iv, bin, horizon);
    double active_from_series = 0.0;
    for (double s : series) active_from_series += s * bin;
    EXPECT_DOUBLE_EQ(active_from_series, 44.0 + 80.0 + 5.0);
}

TEST(FoldSeries, AveragesPhases) {
    const std::vector<double> series = {1.0, 2.0, 3.0, 5.0, 4.0, 7.0};
    const auto folded = fold_series(series, 2);
    ASSERT_EQ(folded.size(), 2U);
    EXPECT_DOUBLE_EQ(folded[0], (1.0 + 3.0 + 4.0) / 3.0);
    EXPECT_DOUBLE_EQ(folded[1], (2.0 + 5.0 + 7.0) / 3.0);
}

TEST(FoldSeries, PeriodLongerThanSeries) {
    const std::vector<double> series = {1.0, 2.0};
    const auto folded = fold_series(series, 5);
    ASSERT_EQ(folded.size(), 5U);
    EXPECT_DOUBLE_EQ(folded[0], 1.0);
    EXPECT_DOUBLE_EQ(folded[1], 2.0);
    EXPECT_DOUBLE_EQ(folded[2], 0.0);
}

TEST(Autocorrelation, LagZeroIsOne) {
    const std::vector<double> series = {1.0, 3.0, 2.0, 5.0, 4.0};
    const auto acf = autocorrelation(series, 2);
    EXPECT_DOUBLE_EQ(acf[0], 1.0);
}

TEST(Autocorrelation, PeriodicSignalPeaksAtPeriod) {
    std::vector<double> series;
    const std::size_t period = 24;
    for (std::size_t i = 0; i < 24 * 30; ++i) {
        series.push_back(std::sin(2.0 * std::numbers::pi *
                                  static_cast<double>(i % period) /
                                  static_cast<double>(period)));
    }
    const auto acf = autocorrelation(series, 3 * period);
    EXPECT_GT(acf[period], 0.95);
    EXPECT_GT(acf[2 * period], 0.9);
    EXPECT_LT(acf[period / 2], -0.9);  // anti-phase
}

TEST(Autocorrelation, WhiteNoiseDecorrelates) {
    std::vector<double> series;
    // Deterministic pseudo-noise.
    std::uint64_t s = 12345;
    for (int i = 0; i < 5000; ++i) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        series.push_back(static_cast<double>(s >> 40));
    }
    const auto acf = autocorrelation(series, 10);
    for (std::size_t l = 1; l <= 10; ++l) EXPECT_LT(std::abs(acf[l]), 0.05);
}

/// The naive double loop the lag-blocked ACF must reproduce bit for bit.
std::vector<double> naive_acf(const std::vector<double>& series,
                              std::size_t max_lag) {
    double m = 0.0;
    for (double x : series) m += x;
    m /= static_cast<double>(series.size());
    double denom = 0.0;
    for (double x : series) denom += (x - m) * (x - m);
    std::vector<double> acf(max_lag + 1, 0.0);
    for (std::size_t l = 0; l <= max_lag; ++l) {
        double num = 0.0;
        for (std::size_t t = 0; t + l < series.size(); ++t) {
            num += (series[t] - m) * (series[t + l] - m);
        }
        acf[l] = num / denom;
    }
    return acf;
}

TEST(Autocorrelation, BitIdenticalToNaiveLoop) {
    std::uint64_t s = 99;
    for (std::size_t len : {2U, 3U, 9U, 17U, 64U, 1000U}) {
        std::vector<double> series;
        for (std::size_t i = 0; i < len; ++i) {
            s = s * 6364136223846793005ULL + 1442695040888963407ULL;
            series.push_back(static_cast<double>(s >> 11) * 0x1.0p-53 *
                                 100.0 +
                             static_cast<double>(i % 7));
        }
        for (std::size_t max_lag :
             {std::size_t{0}, std::size_t{1}, len / 2, len - 1}) {
            const auto got = autocorrelation(series, max_lag);
            const auto want = naive_acf(series, max_lag);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(double)),
                      0)
                << "len=" << len << " max_lag=" << max_lag;
        }
    }
}

TEST(Autocorrelation, RejectsConstantSeries) {
    const std::vector<double> series = {1.0, 1.0, 1.0};
    EXPECT_THROW(autocorrelation(series, 1), lsm::contract_violation);
}

TEST(AcfPeaks, FindsPeriodicPeaks) {
    std::vector<double> acf(100, 0.0);
    acf[0] = 1.0;
    acf[24] = 0.8;
    acf[48] = 0.6;
    acf[10] = 0.1;  // below threshold
    const auto peaks = acf_peaks(acf, 0.3);
    ASSERT_EQ(peaks.size(), 2U);
    EXPECT_EQ(peaks[0], 24U);
    EXPECT_EQ(peaks[1], 48U);
}

TEST(BinMeans, AveragesValuesPerBin) {
    const std::vector<seconds_t> times = {0, 5, 15, 16};
    const std::vector<double> values = {2.0, 4.0, 10.0, 20.0};
    const auto means = bin_means(times, values, 10, 20);
    ASSERT_EQ(means.size(), 2U);
    EXPECT_DOUBLE_EQ(means[0], 3.0);
    EXPECT_DOUBLE_EQ(means[1], 15.0);
}

TEST(BinMeans, EmptyBinsAreZero) {
    const std::vector<seconds_t> times = {25};
    const std::vector<double> values = {7.0};
    const auto means = bin_means(times, values, 10, 30);
    EXPECT_DOUBLE_EQ(means[0], 0.0);
    EXPECT_DOUBLE_EQ(means[1], 0.0);
    EXPECT_DOUBLE_EQ(means[2], 7.0);
}

TEST(FoldedBinMeans, GroupsByPhase) {
    // Period 20, bin 10: phases [0,10) and [10,20).
    const std::vector<seconds_t> times = {0, 20, 45, 15};
    const std::vector<double> values = {1.0, 3.0, 8.0, 4.0};
    const auto means = folded_bin_means(times, values, 20, 10);
    ASSERT_EQ(means.size(), 2U);
    EXPECT_DOUBLE_EQ(means[0], (1.0 + 3.0 + 8.0) / 3.0);  // 0,20,45->phase 5
    EXPECT_DOUBLE_EQ(means[1], 4.0);
}

TEST(FoldedBinMeans, RequiresDivisiblePeriod) {
    const std::vector<seconds_t> times = {0};
    const std::vector<double> values = {1.0};
    EXPECT_THROW(folded_bin_means(times, values, 25, 10),
                 lsm::contract_violation);
}

}  // namespace
}  // namespace lsm::stats
