// Empirical distribution of a sample: CDF, CCDF, quantiles, and
// plot-ready point series matching the paper's "Frequency / P[X <= x] /
// P[X >= x]" triptychs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/sorted_sample.h"

namespace lsm::stats {

/// An (x, y) point of a distribution curve.
struct dist_point {
    double x = 0.0;
    double y = 0.0;
};

class empirical_distribution {
public:
    /// Orders the sample into a run table (sorted_sample.h). Requires a
    /// non-empty sample.
    explicit empirical_distribution(std::span<const double> xs);

    std::size_t size() const { return sample_.size(); }
    double min() const { return sample_.min(); }
    double max() const { return sample_.max(); }
    /// Mean, summed in ascending order.
    double mean() const { return mean_; }

    /// P[X <= x].
    double cdf(double x) const;

    /// P[X >= x] (note: >=, matching the paper's CCDF axes).
    double ccdf(double x) const;

    /// Quantile (inverse CDF) for q in [0, 1].
    double quantile(double q) const;

    /// CDF evaluated at each distinct sample value.
    std::vector<dist_point> cdf_points() const;

    /// CCDF P[X >= x] at each distinct sample value. On a log-log plot this
    /// is the paper's right-hand panel in each triptych.
    std::vector<dist_point> ccdf_points() const;

    /// Log-binned frequency histogram points (geometric bin centers),
    /// matching the paper's left-hand "Frequency" panels. Requires all
    /// sample values > 0. `nbins` > 0.
    std::vector<dist_point> frequency_points_log(std::size_t nbins) const;

    /// Linearly-binned frequency points for distributions plotted on a
    /// linear x axis (e.g. concurrency marginals, Figures 3 and 15).
    std::vector<dist_point> frequency_points_linear(std::size_t nbins) const;

private:
    sorted_sample sample_;
    double mean_ = 0.0;
};

}  // namespace lsm::stats
