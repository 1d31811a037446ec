#include "stats/ks.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/contracts.h"
#include "stats/sorted_sample.h"

namespace lsm::stats {

double ks_distance(std::span<const double> sample,
                   const std::function<double(double)>& model_cdf) {
    const sorted_sample sorted(sample);
    const auto n = static_cast<double>(sorted.size());
    double d = 0.0;
    for (std::size_t r = 0; r < sorted.distinct(); ++r) {
        const double f = model_cdf(sorted.values()[r]);
        // The empirical CDF steps from lo to hi across this run. The
        // rounded f - k/n is monotone in k, so |f - k/n| over the run's
        // k = lo..hi peaks at one of its two ends.
        const double lo = static_cast<double>(sorted.begin(r)) / n;
        const double hi = static_cast<double>(sorted.ends()[r]) / n;
        d = std::max({d, std::abs(f - lo), std::abs(f - hi)});
    }
    return d;
}

double anderson_darling(std::span<const double> sample,
                        const std::function<double(double)>& model_cdf) {
    const sorted_sample sorted(sample);
    constexpr double eps = 1e-12;
    // log F and log(1 - F) once per distinct value.
    std::vector<double> log_f(sorted.distinct());
    std::vector<double> log_sf(sorted.distinct());
    for (std::size_t r = 0; r < sorted.distinct(); ++r) {
        const double f =
            std::clamp(model_cdf(sorted.values()[r]), eps, 1.0 - eps);
        log_f[r] = std::log(f);
        log_sf[r] = std::log(1.0 - f);
    }
    // Order statistic i pairs with order statistic n - 1 - i: walk one
    // run cursor up from the bottom and one down from the top.
    const std::size_t count = sorted.size();
    const auto n = static_cast<double>(count);
    const auto ends = sorted.ends();
    std::size_t up = 0;
    std::size_t down = sorted.distinct() - 1;
    double s = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        if (i == ends[up]) ++up;
        if (count - 1 - i < sorted.begin(down)) --down;
        s += (2.0 * static_cast<double>(i) + 1.0) *
             (log_f[up] + log_sf[down]);
    }
    return -n - s / n;
}

double ks_pvalue(double d, std::size_t n) {
    LSM_EXPECTS(n >= 1);
    LSM_EXPECTS(d >= 0.0 && d <= 1.0);
    if (d == 0.0) return 1.0;
    const double sqrt_n = std::sqrt(static_cast<double>(n));
    const double lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    // The series converges very fast for lambda > 0.3; below that the
    // p-value is 1 to double precision.
    double sum = 0.0;
    for (int k = 1; k <= 100; ++k) {
        const double term =
            std::exp(-2.0 * k * k * lambda * lambda);
        sum += (k % 2 == 1 ? term : -term);
        if (term < 1e-12) break;
    }
    const double p = 2.0 * sum;
    return std::min(1.0, std::max(0.0, p));
}

double ks_distance_two_sample(std::span<const double> a,
                              std::span<const double> b) {
    LSM_EXPECTS(!a.empty() && !b.empty());
    std::vector<double> sa(a.begin(), a.end());
    std::vector<double> sb(b.begin(), b.end());
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    const auto na = static_cast<double>(sa.size());
    const auto nb = static_cast<double>(sb.size());
    std::size_t i = 0, j = 0;
    double d = 0.0;
    while (i < sa.size() && j < sb.size()) {
        const double x = std::min(sa[i], sb[j]);
        while (i < sa.size() && sa[i] <= x) ++i;
        while (j < sb.size() && sb[j] <= x) ++j;
        d = std::max(d, std::abs(static_cast<double>(i) / na -
                                 static_cast<double>(j) / nb));
    }
    return d;
}

}  // namespace lsm::stats
