#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "core/contracts.h"
#include "stats/sorted_sample.h"

namespace lsm::stats {

double mean(std::span<const double> xs) {
    LSM_EXPECTS(!xs.empty());
    double s = 0.0;
    for (double x : xs) s += x;
    return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
    if (xs.size() < 2) return 0.0;
    const double m = mean(xs);
    double ss = 0.0;
    for (double x : xs) ss += (x - m) * (x - m);
    return ss / static_cast<double>(xs.size() - 1);
}

double quantile_sorted(std::span<const double> sorted_xs, double q) {
    LSM_EXPECTS(!sorted_xs.empty());
    LSM_EXPECTS(q >= 0.0 && q <= 1.0);
    return type7_quantile(sorted_xs.size(), q,
                          [&](std::size_t k) { return sorted_xs[k]; });
}

double quantile(std::span<const double> xs, double q) {
    return sorted_sample(xs).quantile(q);
}

double coefficient_of_variation(std::span<const double> xs) {
    const double m = mean(xs);
    LSM_EXPECTS(m != 0.0);
    return std::sqrt(variance(xs)) / m;
}

double pearson_correlation(std::span<const double> xs,
                           std::span<const double> ys) {
    LSM_EXPECTS(xs.size() == ys.size());
    LSM_EXPECTS(xs.size() >= 2);
    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    LSM_EXPECTS(sxx > 0.0 && syy > 0.0);
    return sxy / std::sqrt(sxx * syy);
}

namespace {
// Mean ranks with ties averaged (1-based fractional ranks).
std::vector<double> fractional_ranks(std::span<const double> xs) {
    std::vector<std::size_t> order(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
    std::vector<double> ranks(xs.size(), 0.0);
    std::size_t i = 0;
    while (i < order.size()) {
        std::size_t j = i;
        while (j + 1 < order.size() && xs[order[j + 1]] == xs[order[i]]) {
            ++j;
        }
        const double mean_rank =
            (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
        for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = mean_rank;
        i = j + 1;
    }
    return ranks;
}
}  // namespace

double spearman_correlation(std::span<const double> xs,
                            std::span<const double> ys) {
    LSM_EXPECTS(xs.size() == ys.size());
    LSM_EXPECTS(xs.size() >= 2);
    const auto rx = fractional_ranks(xs);
    const auto ry = fractional_ranks(ys);
    return pearson_correlation(rx, ry);
}

summary summarize(std::span<const double> xs) {
    LSM_EXPECTS(!xs.empty());
    const sorted_sample sorted(xs);
    summary s;
    s.count = xs.size();
    s.sum = 0.0;
    for (double x : xs) s.sum += x;
    s.mean = s.sum / static_cast<double>(s.count);
    double ss = 0.0;
    for (double x : xs) ss += (x - s.mean) * (x - s.mean);
    s.variance =
        s.count > 1 ? ss / static_cast<double>(s.count - 1) : 0.0;
    s.stddev = std::sqrt(s.variance);
    s.min = sorted.min();
    s.max = sorted.max();
    s.median = sorted.quantile(0.5);
    s.p25 = sorted.quantile(0.25);
    s.p75 = sorted.quantile(0.75);
    s.p90 = sorted.quantile(0.90);
    s.p99 = sorted.quantile(0.99);
    return s;
}

}  // namespace lsm::stats
