// Differential tests of the run-table order statistics (sorted_sample.h):
// KS and AD distances, summaries, quantiles, the empirical distribution,
// the value-frequency Zipf profile and the Hill estimator, each against
// the copy-and-std::sort implementation it replaced, which
// stay here as the oracle. Results must match bit for bit (memcmp), on
// tie-heavy and tie-free samples, degenerate ones, extreme magnitudes and
// samples whose distinct count sits on either side of the hash-to-sort
// switch. Samples mixing -0.0 and +0.0 compare by value, since std::sort
// leaves the order of the two zeros unspecified.
#include "stats/sorted_sample.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "characterize/session_layer.h"
#include "core/contracts.h"
#include "core/rng.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/empirical.h"
#include "stats/fitting.h"
#include "stats/histogram.h"
#include "stats/ks.h"
#include "stats/linreg.h"

namespace lsm::stats {
namespace {

// ---------------------------------------------------------------- oracle

std::vector<double> sorted_copy(std::span<const double> xs) {
    std::vector<double> s(xs.begin(), xs.end());
    std::sort(s.begin(), s.end());
    return s;
}

double oracle_quantile_sorted(const std::vector<double>& s, double q) {
    const double h = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(h);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = h - static_cast<double>(lo);
    return s[lo] + frac * (s[hi] - s[lo]);
}

double oracle_ks(std::span<const double> sample,
                 const std::function<double(double)>& model_cdf) {
    const auto sorted = sorted_copy(sample);
    const auto n = static_cast<double>(sorted.size());
    double d = 0.0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const double f = model_cdf(sorted[i]);
        const double lo = static_cast<double>(i) / n;
        const double hi = static_cast<double>(i + 1) / n;
        d = std::max({d, std::abs(f - lo), std::abs(f - hi)});
    }
    return d;
}

double oracle_anderson_darling(
    std::span<const double> sample,
    const std::function<double(double)>& model_cdf) {
    const auto sorted = sorted_copy(sample);
    const auto n = static_cast<double>(sorted.size());
    constexpr double eps = 1e-12;
    double s = 0.0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const double fi = std::clamp(model_cdf(sorted[i]), eps, 1.0 - eps);
        const double fj = std::clamp(
            model_cdf(sorted[sorted.size() - 1 - i]), eps, 1.0 - eps);
        s += (2.0 * static_cast<double>(i) + 1.0) *
             (std::log(fi) + std::log(1.0 - fj));
    }
    return -n - s / n;
}

summary oracle_summarize(std::span<const double> xs) {
    const auto sorted = sorted_copy(xs);
    summary s;
    s.count = xs.size();
    s.sum = 0.0;
    for (double x : xs) s.sum += x;
    s.mean = s.sum / static_cast<double>(s.count);
    double ss = 0.0;
    for (double x : xs) ss += (x - s.mean) * (x - s.mean);
    s.variance = s.count > 1 ? ss / static_cast<double>(s.count - 1) : 0.0;
    s.stddev = std::sqrt(s.variance);
    s.min = sorted.front();
    s.max = sorted.back();
    s.median = oracle_quantile_sorted(sorted, 0.5);
    s.p25 = oracle_quantile_sorted(sorted, 0.25);
    s.p75 = oracle_quantile_sorted(sorted, 0.75);
    s.p90 = oracle_quantile_sorted(sorted, 0.90);
    s.p99 = oracle_quantile_sorted(sorted, 0.99);
    return s;
}

/// The n-element empirical distribution the run table replaced.
struct oracle_empirical {
    std::vector<double> sorted;

    explicit oracle_empirical(std::span<const double> xs)
        : sorted(sorted_copy(xs)) {}

    double mean() const {
        double s = 0.0;
        for (double x : sorted) s += x;
        return s / static_cast<double>(sorted.size());
    }
    double cdf(double x) const {
        auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
        return static_cast<double>(it - sorted.begin()) /
               static_cast<double>(sorted.size());
    }
    double ccdf(double x) const {
        auto it = std::lower_bound(sorted.begin(), sorted.end(), x);
        return static_cast<double>(sorted.end() - it) /
               static_cast<double>(sorted.size());
    }
    std::vector<dist_point> cdf_points() const {
        std::vector<dist_point> pts;
        const auto n = static_cast<double>(sorted.size());
        for (std::size_t i = 0; i < sorted.size(); ++i) {
            if (i + 1 < sorted.size() && sorted[i + 1] == sorted[i]) continue;
            pts.push_back({sorted[i], static_cast<double>(i + 1) / n});
        }
        return pts;
    }
    std::vector<dist_point> ccdf_points() const {
        std::vector<dist_point> pts;
        const auto n = static_cast<double>(sorted.size());
        for (std::size_t i = 0; i < sorted.size(); ++i) {
            if (i > 0 && sorted[i] == sorted[i - 1]) continue;
            pts.push_back(
                {sorted[i], static_cast<double>(sorted.size() - i) / n});
        }
        return pts;
    }
    std::vector<dist_point> frequency_points(histogram h,
                                             bool log_centers) const {
        h.add_all(sorted);
        h.finalize();
        std::vector<dist_point> pts;
        for (const auto& b : h.bins()) {
            if (b.count == 0) continue;
            pts.push_back(
                {log_centers ? b.log_center() : b.center(), b.frequency});
        }
        return pts;
    }
    std::vector<dist_point> frequency_points_log(std::size_t nbins) const {
        double hi = sorted.back();
        if (sorted.front() == hi) hi = sorted.front() * 2.0;
        return frequency_points(
            histogram::logarithmic(sorted.front(), hi, nbins), true);
    }
    std::vector<dist_point> frequency_points_linear(std::size_t nbins) const {
        double hi = sorted.back();
        if (sorted.front() == hi) hi = sorted.front() + 1.0;
        return frequency_points(histogram::linear(sorted.front(), hi, nbins),
                                false);
    }
};

double oracle_hill(std::span<const double> xs, std::size_t tail_count) {
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    const double x_k = sorted[tail_count - 1];
    double sum = 0.0;
    for (std::size_t i = 0; i + 1 < tail_count; ++i) {
        sum += std::log(sorted[i] / x_k);
    }
    return static_cast<double>(tail_count - 1) / sum;
}

characterize::value_zipf oracle_value_zipf(const std::vector<double>& xs) {
    std::map<double, std::uint64_t> counts;
    for (double s : xs) ++counts[s];
    characterize::value_zipf vz;
    const auto total = static_cast<double>(xs.size());
    for (const auto& [value, count] : counts) {
        vz.values.push_back(value);
        vz.frequencies.push_back(static_cast<double>(count) / total);
    }
    if (vz.values.size() < 2) return vz;
    const linreg_result lr = loglog_regression(vz.values, vz.frequencies);
    vz.fit.alpha = -lr.slope;
    vz.fit.c = std::pow(10.0, lr.intercept);
    vz.fit.r_squared = lr.r_squared;
    return vz;
}

// ------------------------------------------------------------ comparison

/// Bitwise equality, or value equality for samples mixing -0.0 and +0.0
/// (NaN == NaN in both modes, since both sides compute the same NaN).
class comparer {
public:
    explicit comparer(bool by_value) : by_value_(by_value) {}

    void same(double want, double got, const std::string& what) const {
        if (by_value_ && want == got) return;
        if (std::isnan(want) && std::isnan(got)) return;
        EXPECT_EQ(0, std::memcmp(&want, &got, sizeof want))
            << what << ": want " << want << " got " << got;
    }
    void same(const std::vector<dist_point>& want,
              const std::vector<dist_point>& got,
              const std::string& what) const {
        ASSERT_EQ(want.size(), got.size()) << what;
        for (std::size_t i = 0; i < want.size(); ++i) {
            same(want[i].x, got[i].x, what + ".x[" + std::to_string(i) + "]");
            same(want[i].y, got[i].y, what + ".y[" + std::to_string(i) + "]");
        }
    }
    void same(const std::vector<double>& want, const std::vector<double>& got,
              const std::string& what) const {
        ASSERT_EQ(want.size(), got.size()) << what;
        for (std::size_t i = 0; i < want.size(); ++i) {
            same(want[i], got[i], what + "[" + std::to_string(i) + "]");
        }
    }

private:
    bool by_value_;
};

bool mixes_zero_signs(const std::vector<double>& xs) {
    bool neg = false, pos = false;
    for (double x : xs) {
        if (x == 0.0) (std::signbit(x) ? neg : pos) = true;
    }
    return neg && pos;
}

/// Runs every replaced statistic on `xs` both ways.
void check_against_oracle(const std::vector<double>& xs) {
    const comparer cmp(mixes_zero_signs(xs));

    const lognormal_dist ln(2.0, 1.3);
    const exponential_dist ex(40.0);
    const std::function<double(double)> ln_cdf = [&](double x) {
        return ln.cdf(x);
    };
    const std::function<double(double)> ex_cdf = [&](double x) {
        return ex.cdf(x);
    };
    cmp.same(oracle_ks(xs, ln_cdf), ks_distance(xs, ln_cdf), "ks lognormal");
    cmp.same(oracle_ks(xs, ex_cdf), ks_distance(xs, ex_cdf),
             "ks exponential");
    cmp.same(oracle_anderson_darling(xs, ln_cdf), anderson_darling(xs, ln_cdf),
             "ad lognormal");
    cmp.same(oracle_anderson_darling(xs, ex_cdf), anderson_darling(xs, ex_cdf),
             "ad exponential");

    const summary want = oracle_summarize(xs);
    const summary got = summarize(xs);
    EXPECT_EQ(want.count, got.count);
    cmp.same(want.mean, got.mean, "mean");
    cmp.same(want.variance, got.variance, "variance");
    cmp.same(want.stddev, got.stddev, "stddev");
    cmp.same(want.min, got.min, "min");
    cmp.same(want.max, got.max, "max");
    cmp.same(want.median, got.median, "median");
    cmp.same(want.p25, got.p25, "p25");
    cmp.same(want.p75, got.p75, "p75");
    cmp.same(want.p90, got.p90, "p90");
    cmp.same(want.p99, got.p99, "p99");
    cmp.same(want.sum, got.sum, "sum");

    // quantile() orders the sample on every call, so it gets the short
    // grid; the empirical distribution's quantile gets a fine one too.
    std::vector<double> qs = {0.0, 1e-9, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99,
                              1.0 - 1e-12, 1.0};
    const auto sorted = sorted_copy(xs);
    for (double q : qs) {
        cmp.same(oracle_quantile_sorted(sorted, q), quantile(xs, q),
                 "quantile q=" + std::to_string(q));
    }
    for (int i = 1; i < 64; ++i) qs.push_back(i / 64.0);
    const oracle_empirical oe(xs);
    const empirical_distribution ed(xs);
    for (double q : qs) {
        cmp.same(oracle_quantile_sorted(sorted, q), ed.quantile(q),
                 "empirical quantile q=" + std::to_string(q));
    }

    EXPECT_EQ(oe.sorted.size(), ed.size());
    cmp.same(oe.sorted.front(), ed.min(), "empirical min");
    cmp.same(oe.sorted.back(), ed.max(), "empirical max");
    cmp.same(oe.mean(), ed.mean(), "empirical mean");

    // CDF and CCDF at every sample point, between neighbours and outside.
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::vector<double> probes = {-inf, inf,
                                  std::nextafter(sorted.front(), -inf),
                                  std::nextafter(sorted.back(), inf)};
    for (std::size_t i = 0; i < sorted.size(); i += 1 + sorted.size() / 4000) {
        probes.push_back(sorted[i]);
        if (i + 1 < sorted.size()) {
            probes.push_back(sorted[i] / 2 + sorted[i + 1] / 2);
        }
    }
    for (double x : probes) {
        const std::string at = "x=" + std::to_string(x);
        cmp.same(oe.cdf(x), ed.cdf(x), "cdf " + at);
        cmp.same(oe.ccdf(x), ed.ccdf(x), "ccdf " + at);
    }
    cmp.same(oe.cdf_points(), ed.cdf_points(), "cdf_points");
    cmp.same(oe.ccdf_points(), ed.ccdf_points(), "ccdf_points");
    cmp.same(oe.frequency_points_linear(37), ed.frequency_points_linear(37),
             "frequency_points_linear");
    if (sorted.front() > 0.0) {
        cmp.same(oe.frequency_points_log(50), ed.frequency_points_log(50),
                 "frequency_points_log");
        const auto want_vz = oracle_value_zipf(xs);
        const auto got_vz = characterize::fit_value_zipf(xs);
        cmp.same(want_vz.values, got_vz.values, "value_zipf values");
        cmp.same(want_vz.frequencies, got_vz.frequencies,
                 "value_zipf frequencies");
        cmp.same(want_vz.fit.alpha, got_vz.fit.alpha, "value_zipf alpha");
        cmp.same(want_vz.fit.c, got_vz.fit.c, "value_zipf c");
        cmp.same(want_vz.fit.r_squared, got_vz.fit.r_squared,
                 "value_zipf r_squared");
        // Hill needs a tail whose top exceeds its threshold.
        for (std::size_t tail : {sorted.size() / 10, sorted.size()}) {
            if (tail < 2 || sorted[sorted.size() - tail] == sorted.back()) {
                continue;
            }
            cmp.same(oracle_hill(xs, tail), hill_tail_index(xs, tail),
                     "hill tail=" + std::to_string(tail));
        }
    }
}

// --------------------------------------------------------------- samples

std::vector<double> rounded_lognormal(std::size_t n, std::uint64_t seed) {
    rng r(seed);
    std::vector<double> xs(n);
    for (double& x : xs) x = std::floor(r.next_lognormal(4.4, 1.4) + 1.0);
    return xs;
}

/// n elements drawing on exactly `distinct` values, every value present,
/// in shuffled order.
std::vector<double> with_distinct(std::size_t n, std::size_t distinct,
                                  std::uint64_t seed) {
    rng r(seed);
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t v = i < distinct ? i : r.next_below(distinct);
        xs[i] = 1.0 + static_cast<double>(v) * 0.5;
    }
    for (std::size_t i = n - 1; i > 0; --i) {
        std::swap(xs[i], xs[r.next_below(i + 1)]);
    }
    return xs;
}

TEST(SortedSampleDifferential, RoundedLognormalIsTieHeavy) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        SCOPED_TRACE(seed);
        const auto xs = rounded_lognormal(60000, seed);
        EXPECT_LT(sorted_sample(xs).distinct(), 6000U);
        check_against_oracle(xs);
    }
}

TEST(SortedSampleDifferential, ContinuousLognormalIsTieFree) {
    rng r(7);
    std::vector<double> xs(30000);
    for (double& x : xs) x = r.next_lognormal(4.4, 1.4);
    EXPECT_EQ(sorted_sample(xs).distinct(), xs.size());
    check_against_oracle(xs);
}

TEST(SortedSampleDifferential, DegenerateSamples) {
    check_against_oracle({42.0});
    check_against_oracle(std::vector<double>(1000, 7.0));
    check_against_oracle({3.0, 9.0});
    std::vector<double> two;
    for (int i = 0; i < 999; ++i) two.push_back(i % 3 == 0 ? 5.0 : 2.0);
    check_against_oracle(two);
}

TEST(SortedSampleDifferential, ZeroAndNegativeValues) {
    rng r(11);
    std::vector<double> xs(20000);
    for (double& x : xs) x = std::floor(r.next_normal(0.0, 6.0));
    ASSERT_NE(std::count(xs.begin(), xs.end(), 0.0), 0);
    check_against_oracle(xs);
    check_against_oracle({0.0, 0.0, 0.0});
    check_against_oracle({-3.5, -1.0, -3.5, -2.0});
}

TEST(SortedSampleDifferential, MixedSignedZerosCompareByValue) {
    rng r(12);
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i) {
        const auto k = r.next_below(5);
        xs.push_back(k == 0   ? -0.0
                     : k == 1 ? 0.0
                              : static_cast<double>(k) - 3.0);
    }
    ASSERT_TRUE(mixes_zero_signs(xs));
    check_against_oracle(xs);
    // Both zeros share one run.
    EXPECT_EQ(sorted_sample(xs).distinct(), 3U);
}

TEST(SortedSampleDifferential, ExtremeMagnitudesAndSubnormals) {
    const double tiny = std::numeric_limits<double>::denorm_min();
    std::vector<double> xs = {1e300, -1e300, tiny, 3 * tiny, 2.5e-310,
                              -2.5e-310, 1.0, 1e300, tiny, 7e-320};
    check_against_oracle(xs);
    rng r(13);
    std::vector<double> big;
    for (int i = 0; i < 9000; ++i) {
        const auto k = r.next_below(6);
        big.push_back(k == 0   ? 1e300
                      : k == 1 ? -1e300
                      : k == 2 ? tiny * static_cast<double>(
                                     1 + r.next_below(50))
                      : k == 3 ? 2.2250738585072014e-308
                               : r.next_lognormal(0.0, 2.0));
    }
    check_against_oracle(big);
}

TEST(SortedSampleDifferential, DistinctCountsAroundTheSwitch) {
    // The switch sits at max(4096, n / 16) distinct values: 4096 for
    // n = 20000, 10000 for n = 160000.
    for (const auto& [n, distinct] :
         {std::pair<std::size_t, std::size_t>{20000, 4095},
          {20000, 4096},
          {20000, 4097},
          {20000, 4098},
          {160000, 10000},
          {160000, 10001}}) {
        SCOPED_TRACE(std::to_string(n) + "/" + std::to_string(distinct));
        const auto xs = with_distinct(n, distinct, n + distinct);
        const sorted_sample s(xs);
        ASSERT_EQ(s.distinct(), distinct);
        ASSERT_EQ(s.size(), n);
        check_against_oracle(xs);
    }
}

TEST(SortedSample, RunTableAndOrderStatistics) {
    const std::vector<double> xs = {4.0, 1.0, 4.0, 2.0, 4.0, 1.0};
    const sorted_sample s(xs);
    ASSERT_EQ(s.distinct(), 3U);
    EXPECT_EQ(s.size(), 6U);
    EXPECT_EQ(std::vector<double>(s.values().begin(), s.values().end()),
              (std::vector<double>{1.0, 2.0, 4.0}));
    EXPECT_EQ(std::vector<std::size_t>(s.ends().begin(), s.ends().end()),
              (std::vector<std::size_t>{2, 3, 6}));
    EXPECT_EQ(s.count(2), 3U);
    EXPECT_EQ(s.begin(2), 3U);
    EXPECT_EQ(s.at(0), 1.0);
    EXPECT_EQ(s.at(2), 2.0);
    EXPECT_EQ(s.at(5), 4.0);
    EXPECT_EQ(s.count_le(4.0), 6U);
    EXPECT_EQ(s.count_lt(4.0), 3U);
    EXPECT_EQ(s.count_le(0.5), 0U);
    EXPECT_THROW(sorted_sample(std::span<const double>{}),
                 contract_violation);
    EXPECT_THROW(static_cast<void>(s.at(6)), contract_violation);
}

}  // namespace
}  // namespace lsm::stats
