#include "characterize/transfer_layer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/contracts.h"
#include "core/rng.h"

namespace lsm::characterize {
namespace {

log_record rec(client_id c, seconds_t start, seconds_t dur,
               double bw = 56000.0) {
    log_record r;
    r.client = c;
    r.start = start;
    r.duration = dur;
    r.avg_bandwidth_bps = bw;
    return r;
}

TEST(TransferLayer, LengthsUseLogDisplay) {
    trace t(seconds_per_day);
    t.add(rec(1, 0, 0));
    t.add(rec(2, 10, 99));
    const auto rep = analyze_transfer_layer(t);
    ASSERT_EQ(rep.lengths.size(), 2U);
    EXPECT_DOUBLE_EQ(rep.lengths[0], 1.0);
    EXPECT_DOUBLE_EQ(rep.lengths[1], 100.0);
}

TEST(TransferLayer, InterarrivalsFromSortedStarts) {
    trace t(seconds_per_day);
    t.add(rec(2, 100, 5));
    t.add(rec(1, 0, 5));
    t.add(rec(3, 250, 5));
    const auto rep = analyze_transfer_layer(t);
    ASSERT_EQ(rep.interarrivals.size(), 2U);
    EXPECT_DOUBLE_EQ(rep.interarrivals[0], 101.0);
    EXPECT_DOUBLE_EQ(rep.interarrivals[1], 151.0);
}

TEST(TransferLayer, FastRegimeFittedWhenNoGapExceedsTailSplit) {
    // A busy day: every interarrival is 40 s or less, below the 100 s
    // split, so only the fast regime has points.
    rng r(3);
    trace t(seconds_per_day);
    seconds_t clock = 0;
    for (int i = 0; i < 2000; ++i) {
        t.add(rec(static_cast<client_id>(i), clock, 30));
        clock += static_cast<seconds_t>(
            std::min(40.0, std::floor(r.next_exponential(8.0))));
    }
    const transfer_layer_config cfg;
    const auto rep = analyze_transfer_layer(t, cfg);
    double largest = 0.0;
    for (double g : rep.interarrivals) largest = std::max(largest, g);
    ASSERT_LT(largest, cfg.tail_split);
    EXPECT_GE(rep.fast_regime.points, 2U);
    EXPECT_GT(rep.fast_regime.alpha, 0.0);
    EXPECT_EQ(rep.slow_regime.points, 0U);
    EXPECT_EQ(rep.slow_regime.alpha, 0.0);
}

TEST(TransferLayer, CongestionFractionByThreshold) {
    trace t(seconds_per_day);
    t.add(rec(1, 0, 10, 5000.0));    // congestion-bound
    t.add(rec(2, 10, 10, 56000.0));  // client-bound
    t.add(rec(3, 20, 10, 12000.0));  // congestion-bound
    t.add(rec(4, 30, 10, 256000.0));
    const auto rep = analyze_transfer_layer(t);
    EXPECT_DOUBLE_EQ(rep.congestion_bound_fraction, 0.5);
    ASSERT_EQ(rep.bandwidths_bps.size(), 4U);
}

TEST(TransferLayer, ConcurrencyFoldsSized) {
    trace t(seconds_per_week);
    t.add(rec(1, 0, 1000));
    const auto rep = analyze_transfer_layer(t);
    EXPECT_EQ(rep.concurrency_daily_fold.size(),
              static_cast<std::size_t>(seconds_per_day / 900));
    EXPECT_EQ(rep.concurrency_weekly_fold.size(),
              static_cast<std::size_t>(seconds_per_week / 900));
}

TEST(TransferLayer, ConcurrencyBinnedReflectsLoad) {
    trace t(3600);
    // Ten transfers fully covering the first 900-second bin.
    for (int i = 0; i < 10; ++i) {
        t.add(rec(static_cast<client_id>(i), 0, 900));
    }
    const auto rep = analyze_transfer_layer(t);
    EXPECT_DOUBLE_EQ(rep.concurrency_binned[0], 10.0);
    EXPECT_DOUBLE_EQ(rep.concurrency_binned[1], 0.0);
}

TEST(TransferLayer, LognormalLengthFitRecovery) {
    rng r(1);
    trace t(0);
    seconds_t clock = 0;
    for (int i = 0; i < 30000; ++i) {
        const auto len = static_cast<seconds_t>(
            r.next_lognormal(4.383921, 1.427247));  // paper Fig 19
        t.add(rec(static_cast<client_id>(i), clock, len));
        clock += 3;
    }
    t.set_window_length(clock + 10000000);
    const auto rep = analyze_transfer_layer(t);
    EXPECT_NEAR(rep.length_fit.mu, 4.383921, 0.1);
    EXPECT_NEAR(rep.length_fit.sigma, 1.427247, 0.1);
}

TEST(TransferLayer, TwoRegimeTailDetected) {
    // Gaps drawn from a piecewise-Pareto CCDF: exponent 2.8 up to the
    // break x_b, then exponent 1.0 beyond it — the Fig 17 structure.
    rng r(2);
    const double a_fast = 2.8, a_slow = 1.0, x_b = 12.0;
    const double ccdf_break = std::pow(x_b, -a_fast);
    trace t(0);
    seconds_t clock = 0;
    for (int i = 0; i < 400000; ++i) {
        t.add(rec(static_cast<client_id>(i), clock, 1));
        const double u = r.next_double_open0();
        double gap = 0.0;
        if (u >= ccdf_break) {
            gap = std::pow(u, -1.0 / a_fast);
        } else {
            gap = x_b * std::pow(ccdf_break / u, 1.0 / a_slow);
        }
        clock += std::max<seconds_t>(1, static_cast<seconds_t>(gap));
    }
    t.set_window_length(clock + 1000);
    transfer_layer_config cfg;
    cfg.tail_split = x_b;
    cfg.tail_max = 100000.0;
    const auto rep = analyze_transfer_layer(t, cfg);
    EXPECT_GT(rep.fast_regime.alpha, 1.6);
    EXPECT_NEAR(rep.slow_regime.alpha, a_slow, 0.3);
    EXPECT_GT(rep.fast_regime.alpha, rep.slow_regime.alpha);
}

TEST(TransferLayer, InterarrivalTemporalBinsSized) {
    trace t(2 * seconds_per_day);
    for (int i = 0; i < 100; ++i) {
        t.add(rec(static_cast<client_id>(i), i * 1000, 10));
    }
    const auto rep = analyze_transfer_layer(t);
    EXPECT_EQ(rep.interarrival_binned.size(),
              static_cast<std::size_t>(2 * seconds_per_day / 900));
    EXPECT_EQ(rep.interarrival_daily_fold.size(),
              static_cast<std::size_t>(seconds_per_day / 900));
}

TEST(TransferLayer, RejectsEmptyTrace) {
    trace t(100);
    EXPECT_THROW(analyze_transfer_layer(t), lsm::contract_violation);
}

TEST(TransferLayer, RejectsBadTailConfig) {
    trace t(100);
    t.add(rec(1, 0, 1));
    transfer_layer_config cfg;
    cfg.tail_split = 0.5;
    EXPECT_THROW(analyze_transfer_layer(t, cfg), lsm::contract_violation);
}

}  // namespace
}  // namespace lsm::characterize
