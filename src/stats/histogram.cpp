#include "stats/histogram.h"

#include <cmath>

#include "core/contracts.h"

namespace lsm::stats {

double histogram_bin::log_center() const {
    return std::sqrt(lower * upper);
}

histogram histogram::linear(double lo, double hi, std::size_t nbins) {
    LSM_EXPECTS(lo < hi);
    LSM_EXPECTS(nbins > 0);
    histogram h;
    h.lo_ = lo;
    h.hi_ = hi;
    h.log_spaced_ = false;
    h.width_ = (hi - lo) / static_cast<double>(nbins);
    h.bins_.resize(nbins);
    for (std::size_t i = 0; i < nbins; ++i) {
        h.bins_[i].lower = lo + static_cast<double>(i) * h.width_;
        h.bins_[i].upper = lo + static_cast<double>(i + 1) * h.width_;
    }
    return h;
}

histogram histogram::logarithmic(double lo, double hi, std::size_t nbins) {
    LSM_EXPECTS(lo > 0.0 && lo < hi);
    LSM_EXPECTS(nbins > 0);
    histogram h;
    h.lo_ = lo;
    h.hi_ = hi;
    h.log_spaced_ = true;
    h.log_lo_ = std::log(lo);
    h.log_width_ = (std::log(hi) - std::log(lo)) / static_cast<double>(nbins);
    h.bins_.resize(nbins);
    for (std::size_t i = 0; i < nbins; ++i) {
        h.bins_[i].lower =
            std::exp(h.log_lo_ + static_cast<double>(i) * h.log_width_);
        h.bins_[i].upper =
            std::exp(h.log_lo_ + static_cast<double>(i + 1) * h.log_width_);
    }
    // Force exact edges at the ends to avoid round-trip drift.
    h.bins_.front().lower = lo;
    h.bins_.back().upper = hi;
    return h;
}

std::size_t histogram::bin_index(double x) const {
    double pos = 0.0;
    if (log_spaced_) {
        pos = (std::log(x) - log_lo_) / log_width_;
    } else {
        pos = (x - lo_) / width_;
    }
    auto idx = static_cast<std::size_t>(pos);
    if (idx >= bins_.size()) idx = bins_.size() - 1;  // x == hi edge case
    return idx;
}

void histogram::add(double x, std::size_t count) {
    if (x < lo_) {
        underflow_ += count;
        return;
    }
    if (x > hi_) {
        overflow_ += count;
        return;
    }
    bins_[bin_index(x)].count += count;
    total_ += count;
}

void histogram::add_all(std::span<const double> xs) {
    for (double x : xs) add(x);
}

void histogram::finalize() {
    if (total_ == 0) return;
    for (auto& b : bins_) {
        b.frequency =
            static_cast<double>(b.count) / static_cast<double>(total_);
    }
}

}  // namespace lsm::stats
