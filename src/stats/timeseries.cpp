#include "stats/timeseries.h"

#include <algorithm>
#include <cmath>

#include "core/contracts.h"

namespace lsm::stats {

namespace {
std::size_t num_bins(seconds_t bin_width, seconds_t horizon) {
    return static_cast<std::size_t>((horizon + bin_width - 1) / bin_width);
}
}  // namespace

std::vector<double> bin_event_counts(std::span<const seconds_t> event_times,
                                     seconds_t bin_width, seconds_t horizon) {
    LSM_EXPECTS(bin_width > 0 && horizon > 0);
    std::vector<double> counts(num_bins(bin_width, horizon), 0.0);
    for (seconds_t t : event_times) {
        if (t < 0 || t >= horizon) continue;
        counts[static_cast<std::size_t>(t / bin_width)] += 1.0;
    }
    return counts;
}

std::vector<double> concurrency_series(std::span<const interval> intervals,
                                       seconds_t bin_width,
                                       seconds_t horizon) {
    LSM_EXPECTS(bin_width > 0 && horizon > 0);
    const std::size_t n = num_bins(bin_width, horizon);
    // Difference array over bin boundaries: +1 at the first boundary >= a
    // sample point inside [start, end); sampled at bin starts i*w.
    std::vector<double> diff(n + 1, 0.0);
    for (const interval& v : intervals) {
        LSM_EXPECTS(v.end >= v.start);
        // First sampled boundary at or after start:
        seconds_t first = (v.start + bin_width - 1) / bin_width;
        // Last sampled boundary strictly before end; zero-length intervals
        // count at their start if it falls exactly on a boundary.
        seconds_t last =
            v.end > v.start ? (v.end - 1) / bin_width : v.start / bin_width;
        if (v.end == v.start && v.start % bin_width != 0) continue;
        if (first > last) continue;
        if (first >= static_cast<seconds_t>(n)) continue;
        last = std::min<seconds_t>(last, static_cast<seconds_t>(n) - 1);
        diff[static_cast<std::size_t>(first)] += 1.0;
        diff[static_cast<std::size_t>(last) + 1] -= 1.0;
    }
    std::vector<double> series(n, 0.0);
    double running = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        running += diff[i];
        series[i] = running;
    }
    return series;
}

std::vector<double> mean_concurrency_series(
    std::span<const interval> intervals, seconds_t bin_width,
    seconds_t horizon) {
    LSM_EXPECTS(bin_width > 0 && horizon > 0);
    const std::size_t n = num_bins(bin_width, horizon);
    // Accumulate active-seconds per bin, then divide by bin width.
    std::vector<double> active_seconds(n, 0.0);
    for (const interval& v : intervals) {
        LSM_EXPECTS(v.end >= v.start);
        seconds_t a = std::max<seconds_t>(v.start, 0);
        seconds_t b = std::min<seconds_t>(v.end, horizon);
        if (b <= a) continue;
        std::size_t first_bin = static_cast<std::size_t>(a / bin_width);
        std::size_t last_bin = static_cast<std::size_t>((b - 1) / bin_width);
        for (std::size_t i = first_bin; i <= last_bin && i < n; ++i) {
            const seconds_t bin_lo = static_cast<seconds_t>(i) * bin_width;
            const seconds_t bin_hi = bin_lo + bin_width;
            active_seconds[i] += static_cast<double>(
                std::min(b, bin_hi) - std::max(a, bin_lo));
        }
    }
    for (auto& s : active_seconds) s /= static_cast<double>(bin_width);
    return active_seconds;
}

std::vector<double> fold_series(std::span<const double> series,
                                std::size_t period_bins) {
    LSM_EXPECTS(period_bins > 0);
    std::vector<double> sums(period_bins, 0.0);
    std::vector<std::size_t> counts(period_bins, 0);
    for (std::size_t i = 0; i < series.size(); ++i) {
        sums[i % period_bins] += series[i];
        ++counts[i % period_bins];
    }
    for (std::size_t p = 0; p < period_bins; ++p) {
        if (counts[p] > 0) sums[p] /= static_cast<double>(counts[p]);
    }
    return sums;
}

std::vector<double> autocorrelation(std::span<const double> series,
                                    std::size_t max_lag) {
    LSM_EXPECTS(series.size() > max_lag);
    const std::size_t len = series.size();
    const auto n = static_cast<double>(len);
    double m = 0.0;
    for (double x : series) m += x;
    m /= n;
    std::vector<double> c(len);
    for (std::size_t t = 0; t < len; ++t) c[t] = series[t] - m;
    double denom = 0.0;
    for (double x : c) denom += x * x;
    LSM_EXPECTS(denom > 0.0);
    std::vector<double> acf(max_lag + 1, 0.0);
    // Lags run in blocks that share one pass over the series. Each lag
    // keeps its own accumulator and adds its terms in ascending t, as a
    // one-lag loop would, so every value is bit-identical to that loop.
    constexpr std::size_t block = 8;
    std::size_t l0 = 0;
    for (; l0 + block <= max_lag + 1; l0 += block) {
        double num[block] = {};
        // Up to `common` every lag of the block has a partner term.
        const std::size_t common = len - (l0 + block - 1);
        for (std::size_t t = 0; t < common; ++t) {
            const double x = c[t];
            const double* y = c.data() + t + l0;
            for (std::size_t j = 0; j < block; ++j) num[j] += x * y[j];
        }
        for (std::size_t j = 0; j < block; ++j) {
            for (std::size_t t = common; t + l0 + j < len; ++t) {
                num[j] += c[t] * c[t + l0 + j];
            }
            acf[l0 + j] = num[j] / denom;
        }
    }
    for (std::size_t l = l0; l <= max_lag; ++l) {
        double num = 0.0;
        for (std::size_t t = 0; t + l < len; ++t) num += c[t] * c[t + l];
        acf[l] = num / denom;
    }
    return acf;
}

std::vector<std::size_t> acf_peaks(std::span<const double> acf,
                                   double threshold) {
    std::vector<std::size_t> peaks;
    for (std::size_t i = 1; i + 1 < acf.size(); ++i) {
        if (acf[i] > threshold && acf[i] >= acf[i - 1] &&
            acf[i] >= acf[i + 1]) {
            // Skip plateau duplicates: only record the first index.
            if (!peaks.empty() && peaks.back() + 1 == i &&
                acf[peaks.back()] == acf[i]) {
                continue;
            }
            peaks.push_back(i);
        }
    }
    return peaks;
}

std::vector<double> bin_means(std::span<const seconds_t> times,
                              std::span<const double> values,
                              seconds_t bin_width, seconds_t horizon) {
    LSM_EXPECTS(times.size() == values.size());
    LSM_EXPECTS(bin_width > 0 && horizon > 0);
    const std::size_t n = num_bins(bin_width, horizon);
    std::vector<double> sums(n, 0.0);
    std::vector<std::size_t> counts(n, 0);
    for (std::size_t i = 0; i < times.size(); ++i) {
        if (times[i] < 0 || times[i] >= horizon) continue;
        const auto b = static_cast<std::size_t>(times[i] / bin_width);
        sums[b] += values[i];
        ++counts[b];
    }
    for (std::size_t b = 0; b < n; ++b) {
        if (counts[b] > 0) sums[b] /= static_cast<double>(counts[b]);
    }
    return sums;
}

std::vector<double> folded_bin_means(std::span<const seconds_t> times,
                                     std::span<const double> values,
                                     seconds_t period, seconds_t bin_width) {
    LSM_EXPECTS(times.size() == values.size());
    LSM_EXPECTS(period > 0 && bin_width > 0 && period % bin_width == 0);
    const auto n = static_cast<std::size_t>(period / bin_width);
    std::vector<double> sums(n, 0.0);
    std::vector<std::size_t> counts(n, 0);
    for (std::size_t i = 0; i < times.size(); ++i) {
        seconds_t phase = times[i] % period;
        if (phase < 0) phase += period;
        const auto b = static_cast<std::size_t>(phase / bin_width);
        sums[b] += values[i];
        ++counts[b];
    }
    for (std::size_t b = 0; b < n; ++b) {
        if (counts[b] > 0) sums[b] /= static_cast<double>(counts[b]);
    }
    return sums;
}

}  // namespace lsm::stats
