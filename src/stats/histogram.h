// Linear and logarithmic histograms.
//
// The paper's frequency plots (e.g. Figures 3, 5, 11, 19, 20) are
// log-binned frequency histograms; the log_histogram here reproduces that
// binning. Values of zero are expected to be pre-mapped through the
// ⌊t + 1⌋ convention by the caller (see core/time_utils.h).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace lsm::stats {

struct histogram_bin {
    double lower = 0.0;     ///< inclusive lower edge
    double upper = 0.0;     ///< exclusive upper edge (last bin inclusive)
    std::size_t count = 0;
    double frequency = 0.0;  ///< count / total
    double center() const { return 0.5 * (lower + upper); }
    /// Geometric bin center, appropriate for log-spaced bins.
    double log_center() const;
};

class histogram {
public:
    /// Linear bins over [lo, hi) — `nbins` equal-width bins.
    /// Requires lo < hi and nbins > 0.
    static histogram linear(double lo, double hi, std::size_t nbins);

    /// Log-spaced bins over [lo, hi) — `nbins` bins equal in log space.
    /// Requires 0 < lo < hi and nbins > 0.
    static histogram logarithmic(double lo, double hi, std::size_t nbins);

    /// Adds `count` copies of x.
    void add(double x, std::size_t count = 1);
    void add_all(std::span<const double> xs);

    const std::vector<histogram_bin>& bins() const { return bins_; }
    std::size_t total() const { return total_; }
    std::size_t underflow() const { return underflow_; }
    std::size_t overflow() const { return overflow_; }

    /// Recomputes per-bin frequency = count / total in-bin count.
    void finalize();

private:
    histogram() = default;
    std::size_t bin_index(double x) const;

    std::vector<histogram_bin> bins_;
    double lo_ = 0.0;
    double hi_ = 0.0;
    bool log_spaced_ = false;
    double log_lo_ = 0.0;
    double log_width_ = 0.0;  ///< per-bin width in linear or log space
    double width_ = 0.0;
    std::size_t total_ = 0;
    std::size_t underflow_ = 0;
    std::size_t overflow_ = 0;
};

}  // namespace lsm::stats
