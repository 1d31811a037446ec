// Descriptive statistics over samples of doubles.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace lsm::stats {

/// Summary statistics of a sample. Quantiles use linear interpolation
/// between order statistics (type-7, the R default).
struct summary {
    std::size_t count = 0;
    double mean = 0.0;
    double variance = 0.0;  ///< unbiased (n-1 denominator); 0 for n < 2
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    double median = 0.0;
    double p25 = 0.0;
    double p75 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double sum = 0.0;
};

/// Computes summary statistics. Requires a non-empty sample.
summary summarize(std::span<const double> xs);

double mean(std::span<const double> xs);

/// Unbiased sample variance; returns 0 for fewer than two samples.
double variance(std::span<const double> xs);

/// Quantile q in [0, 1] of an UNSORTED sample (orders it through a
/// sorted_sample).
double quantile(std::span<const double> xs, double q);

/// Quantile q in [0, 1] of a sample already sorted ascending.
double quantile_sorted(std::span<const double> sorted_xs, double q);

/// Coefficient of variation: stddev / mean. Requires mean != 0.
double coefficient_of_variation(std::span<const double> xs);

/// Pearson correlation coefficient of two equal-length samples.
/// Requires size >= 2 and non-zero variance on both sides.
double pearson_correlation(std::span<const double> xs,
                           std::span<const double> ys);

/// Spearman rank correlation (Pearson over ranks; ties get the mean
/// rank). Robust to the heavy tails ubiquitous in this workload.
double spearman_correlation(std::span<const double> xs,
                            std::span<const double> ys);

}  // namespace lsm::stats
