#include "stats/fitting.h"

#include <algorithm>
#include <cmath>

#include "core/contracts.h"
#include "stats/ks.h"
#include "stats/linreg.h"
#include "stats/sorted_sample.h"

namespace lsm::stats {

lognormal_fit fit_lognormal_mle(std::span<const double> xs) {
    LSM_EXPECTS(xs.size() >= 2);
    double sum = 0.0;
    for (double x : xs) {
        LSM_EXPECTS(x > 0.0);
        sum += std::log(x);
    }
    const auto n = static_cast<double>(xs.size());
    const double mu = sum / n;
    double ss = 0.0;
    for (double x : xs) {
        const double d = std::log(x) - mu;
        ss += d * d;
    }
    lognormal_fit fit;
    fit.mu = mu;
    fit.sigma = std::sqrt(ss / n);  // MLE (biased) estimator, n denominator
    LSM_ENSURES(fit.sigma >= 0.0);
    if (fit.sigma > 0.0) {
        lognormal_dist d(fit.mu, fit.sigma);
        fit.ks = ks_distance(xs, [&](double x) { return d.cdf(x); });
    }
    return fit;
}

exponential_fit fit_exponential_mle(std::span<const double> xs) {
    LSM_EXPECTS(!xs.empty());
    double sum = 0.0;
    for (double x : xs) {
        LSM_EXPECTS(x >= 0.0);
        sum += x;
    }
    exponential_fit fit;
    fit.mean = sum / static_cast<double>(xs.size());
    LSM_EXPECTS(fit.mean > 0.0);
    exponential_dist d(fit.mean);
    fit.ks = ks_distance(xs, [&](double x) { return d.cdf(x); });
    return fit;
}

zipf_fit fit_zipf_loglog(std::span<const double> freq_by_rank) {
    std::vector<double> ranks, freqs;
    for (std::size_t i = 0; i < freq_by_rank.size(); ++i) {
        if (freq_by_rank[i] <= 0.0) continue;
        ranks.push_back(static_cast<double>(i + 1));
        freqs.push_back(freq_by_rank[i]);
    }
    LSM_EXPECTS(ranks.size() >= 2);
    const linreg_result lr = loglog_regression(ranks, freqs);
    zipf_fit fit;
    fit.alpha = -lr.slope;
    fit.c = std::pow(10.0, lr.intercept);
    fit.r_squared = lr.r_squared;
    return fit;
}

std::vector<double> rank_frequency_profile(
    std::span<const std::uint64_t> counts) {
    std::vector<std::uint64_t> sorted(counts.begin(), counts.end());
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    double total = 0.0;
    for (auto c : sorted) total += static_cast<double>(c);
    std::vector<double> profile;
    profile.reserve(sorted.size());
    for (auto c : sorted) {
        profile.push_back(total > 0.0 ? static_cast<double>(c) / total : 0.0);
    }
    return profile;
}

double fit_zipf_mle(std::span<const std::uint64_t> counts_by_rank,
                    double alpha_lo, double alpha_hi) {
    LSM_EXPECTS(counts_by_rank.size() >= 2);
    LSM_EXPECTS(alpha_lo >= 0.0 && alpha_lo < alpha_hi);
    const auto n = counts_by_rank.size();
    double total = 0.0;
    double sum_count_logk = 0.0;
    for (std::size_t k = 1; k <= n; ++k) {
        const auto c = static_cast<double>(counts_by_rank[k - 1]);
        total += c;
        sum_count_logk += c * std::log(static_cast<double>(k));
    }
    LSM_EXPECTS(total > 0.0);

    // Precompute log k once; the normalizer H(n, alpha) is recomputed per
    // candidate alpha (n is at most the client-universe size).
    std::vector<double> logk(n);
    for (std::size_t k = 1; k <= n; ++k) {
        logk[k - 1] = std::log(static_cast<double>(k));
    }
    auto neg_loglik = [&](double alpha) {
        double h = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
            h += std::exp(-alpha * logk[k]);
        }
        return alpha * sum_count_logk + total * std::log(h);
    };

    // Golden-section search (the objective is unimodal in alpha).
    const double gr = (std::sqrt(5.0) - 1.0) / 2.0;
    double a = alpha_lo, b = alpha_hi;
    double c = b - gr * (b - a);
    double d = a + gr * (b - a);
    double fc = neg_loglik(c), fd = neg_loglik(d);
    for (int iter = 0; iter < 80 && (b - a) > 1e-7; ++iter) {
        if (fc < fd) {
            b = d;
            d = c;
            fd = fc;
            c = b - gr * (b - a);
            fc = neg_loglik(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + gr * (b - a);
            fd = neg_loglik(d);
        }
    }
    return (a + b) / 2.0;
}

tail_fit fit_ccdf_tail(const empirical_distribution& ed, double x_lo,
                       double x_hi) {
    LSM_EXPECTS(x_lo > 0.0 && x_lo < x_hi);
    std::vector<double> xs, ys;
    for (const auto& p : ed.ccdf_points()) {
        if (p.x < x_lo || p.x > x_hi || p.y <= 0.0) continue;
        xs.push_back(p.x);
        ys.push_back(p.y);
    }
    // Not enough distinct points in range to estimate a slope: report an
    // empty fit (points < 2) rather than failing, so sparse traces can
    // still be analyzed.
    if (xs.size() < 2) {
        tail_fit empty;
        empty.points = xs.size();
        return empty;
    }
    const linreg_result lr = loglog_regression(xs, ys);
    tail_fit fit;
    fit.alpha = -lr.slope;
    fit.r_squared = lr.r_squared;
    fit.points = xs.size();
    return fit;
}

double hill_tail_index(std::span<const double> xs, std::size_t tail_count) {
    LSM_EXPECTS(tail_count >= 2 && tail_count <= xs.size());
    const sorted_sample sorted(xs);
    const std::size_t n = sorted.size();
    const double x_k = sorted.at(n - tail_count);
    LSM_EXPECTS(x_k > 0.0);
    double sum = 0.0;
    // The tail_count - 1 largest values, largest first.
    for (std::size_t i = 0; i + 1 < tail_count; ++i) {
        sum += std::log(sorted.at(n - 1 - i) / x_k);
    }
    LSM_EXPECTS(sum > 0.0);
    return static_cast<double>(tail_count - 1) / sum;
}

}  // namespace lsm::stats
