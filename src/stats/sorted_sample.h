// Order statistics of a sample held as runs of equal values.
//
// Every layer marginal the paper fits (Figs 5, 11–14, 17, 19) lives on
// the ⌊t+1⌋ scale, so a sample of millions of values holds only a few
// thousand distinct ones. A sorted_sample stores the sample in ascending
// order as its distinct values plus cumulative counts; the k-th order
// statistic, the empirical CDF at any point and a model CDF evaluated
// once per distinct value all read off that table. It is the one place
// where a one-sample statistic (KS, AD, summaries, quantiles, empirical
// distributions, value-frequency profiles) orders its input.
//
// Build: the distinct bit patterns are counted in a small open-addressing
// table while their number stays under max(4096, n/16); a sample with
// more distinct values than that is radix-sorted on order-preserving
// 64-bit keys instead and its runs collapsed. Which way a sample goes
// depends only on the sample, and both give the same table.
//
// Values compare as doubles: -0.0 and +0.0 share one run (its value is
// the first zero in key order, -0.0 when present). NaN is not supported.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace lsm::stats {

/// Type-7 (R default) quantile q in [0, 1] of n >= 1 ascending order
/// statistics, read through `at(k)` (the k-th smallest, 0-based). Shared
/// by quantile_sorted and sorted_sample so the arithmetic is one copy.
template <typename At>
double type7_quantile(std::size_t n, double q, At at) {
    const double h = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(h);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = h - static_cast<double>(lo);
    const double x_lo = at(lo);
    return x_lo + frac * (at(hi) - x_lo);
}

class sorted_sample {
public:
    /// Requires a non-empty sample.
    explicit sorted_sample(std::span<const double> xs);

    /// Number of elements n.
    std::size_t size() const { return ends_.back(); }
    /// Number of runs (distinct values).
    std::size_t distinct() const { return values_.size(); }
    /// Distinct values, ascending.
    std::span<const double> values() const { return values_; }
    /// ends()[r] = number of elements <= values()[r]; run r holds order
    /// statistics [begin(r), ends()[r]).
    std::span<const std::size_t> ends() const { return ends_; }
    std::size_t begin(std::size_t r) const { return r == 0 ? 0 : ends_[r - 1]; }
    std::size_t count(std::size_t r) const { return ends_[r] - begin(r); }

    double min() const { return values_.front(); }
    double max() const { return values_.back(); }
    /// The k-th smallest element, 0-based. Requires k < size().
    double at(std::size_t k) const;
    /// Type-7 quantile; requires q in [0, 1].
    double quantile(double q) const;
    /// Number of elements <= x.
    std::size_t count_le(double x) const;
    /// Number of elements < x.
    std::size_t count_lt(double x) const;

private:
    std::vector<double> values_;
    std::vector<std::size_t> ends_;
};

}  // namespace lsm::stats
