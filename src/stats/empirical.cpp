#include "stats/empirical.h"

#include "core/contracts.h"
#include "stats/histogram.h"

namespace lsm::stats {

empirical_distribution::empirical_distribution(std::span<const double> xs)
    : sample_(xs) {
    // Element by element in ascending order, as a sum over the sorted
    // copy would add them.
    double s = 0.0;
    for (std::size_t r = 0; r < sample_.distinct(); ++r) {
        const double v = sample_.values()[r];
        for (std::size_t c = sample_.count(r); c > 0; --c) s += v;
    }
    mean_ = s / static_cast<double>(sample_.size());
}

double empirical_distribution::cdf(double x) const {
    return static_cast<double>(sample_.count_le(x)) /
           static_cast<double>(sample_.size());
}

double empirical_distribution::ccdf(double x) const {
    return static_cast<double>(sample_.size() - sample_.count_lt(x)) /
           static_cast<double>(sample_.size());
}

double empirical_distribution::quantile(double q) const {
    return sample_.quantile(q);
}

std::vector<dist_point> empirical_distribution::cdf_points() const {
    // One point per distinct value: the share of the sample at or below it.
    std::vector<dist_point> pts;
    pts.reserve(sample_.distinct());
    const auto n = static_cast<double>(sample_.size());
    for (std::size_t r = 0; r < sample_.distinct(); ++r) {
        pts.push_back({sample_.values()[r],
                       static_cast<double>(sample_.ends()[r]) / n});
    }
    return pts;
}

std::vector<dist_point> empirical_distribution::ccdf_points() const {
    // One point per distinct value: P[X >= x] counts its whole run and
    // everything above it.
    std::vector<dist_point> pts;
    pts.reserve(sample_.distinct());
    const auto n = static_cast<double>(sample_.size());
    for (std::size_t r = 0; r < sample_.distinct(); ++r) {
        pts.push_back(
            {sample_.values()[r],
             static_cast<double>(sample_.size() - sample_.begin(r)) / n});
    }
    return pts;
}

namespace {
std::vector<dist_point> frequency_points(const sorted_sample& sample,
                                         histogram h, bool log_centers) {
    for (std::size_t r = 0; r < sample.distinct(); ++r) {
        h.add(sample.values()[r], sample.count(r));
    }
    h.finalize();
    std::vector<dist_point> pts;
    for (const auto& b : h.bins()) {
        if (b.count == 0) continue;
        pts.push_back(
            {log_centers ? b.log_center() : b.center(), b.frequency});
    }
    return pts;
}
}  // namespace

std::vector<dist_point> empirical_distribution::frequency_points_log(
    std::size_t nbins) const {
    LSM_EXPECTS(nbins > 0);
    LSM_EXPECTS(min() > 0.0);
    const double lo = min();
    double hi = max();
    if (lo == hi) hi = lo * 2.0;  // degenerate sample: single-valued
    return frequency_points(sample_, histogram::logarithmic(lo, hi, nbins),
                            true);
}

std::vector<dist_point> empirical_distribution::frequency_points_linear(
    std::size_t nbins) const {
    LSM_EXPECTS(nbins > 0);
    const double lo = min();
    double hi = max();
    if (lo == hi) hi = lo + 1.0;
    return frequency_points(sample_, histogram::linear(lo, hi, nbins),
                            false);
}

}  // namespace lsm::stats
