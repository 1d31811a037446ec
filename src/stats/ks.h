// Kolmogorov–Smirnov distance between a sample and a model CDF — used by
// the test suite and by EXPERIMENTS.md to quantify goodness of fit.
#pragma once

#include <functional>
#include <span>

namespace lsm::stats {

/// One-sample KS statistic: sup_x |F_n(x) - F(x)| where F_n is the
/// empirical CDF of the sample and F is `model_cdf`, evaluated once per
/// distinct sample value (see sorted_sample.h). Requires a non-empty
/// sample.
double ks_distance(std::span<const double> sample,
                   const std::function<double(double)>& model_cdf);

/// Two-sample KS statistic between two non-empty samples.
double ks_distance_two_sample(std::span<const double> a,
                              std::span<const double> b);

/// Anderson-Darling statistic A^2 of a sample against a model CDF.
/// More tail-sensitive than KS — the right tool when the question is
/// whether a LOGNORMAL body hides a heavier tail (§5.3's debate).
/// Requires a non-empty sample and a CDF mapping strictly inside (0, 1)
/// on the sample (values are clamped to avoid log(0)).
double anderson_darling(std::span<const double> sample,
                        const std::function<double(double)>& model_cdf);

/// Asymptotic p-value of a one-sample KS statistic `d` for sample size n:
/// P[D_n > d] via the Kolmogorov distribution
/// Q(lambda) = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2)
/// with the Stephens small-sample correction
/// lambda = (sqrt(n) + 0.12 + 0.11/sqrt(n)) * d.
/// Requires n >= 1 and 0 <= d <= 1.
double ks_pvalue(double d, std::size_t n);

}  // namespace lsm::stats
