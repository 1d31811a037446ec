#include "characterize/transfer_layer.h"

#include <algorithm>
#include <span>

#include "core/contracts.h"
#include "core/radix_sort.h"
#include "stats/timeseries.h"

namespace lsm::characterize {

namespace {

// --- Concurrency of transfers (Fig 15 / Fig 16).
void transfer_concurrency(const trace& t, seconds_t horizon,
                          const transfer_layer_config& cfg,
                          transfer_layer_report& rep) {
    std::vector<stats::interval> intervals;
    intervals.reserve(t.size());
    for (const log_record& r : t.records()) {
        intervals.push_back({r.start, std::max(r.end(), r.start + 1)});
    }
    rep.concurrency_binned =
        stats::mean_concurrency_series(intervals, cfg.temporal_bin, horizon);
    const auto bins_per_week =
        static_cast<std::size_t>(seconds_per_week / cfg.temporal_bin);
    const auto bins_per_day =
        static_cast<std::size_t>(seconds_per_day / cfg.temporal_bin);
    rep.concurrency_weekly_fold =
        stats::fold_series(rep.concurrency_binned, bins_per_week);
    rep.concurrency_daily_fold =
        stats::fold_series(rep.concurrency_binned, bins_per_day);
    rep.concurrency_marginal =
        stats::concurrency_series(intervals, 60, horizon);
}

// --- Interarrivals (Fig 17 / Fig 18). Requires start-sorted records.
void transfer_interarrivals(const trace& t, seconds_t horizon,
                            const transfer_layer_config& cfg,
                            transfer_layer_report& rep) {
    std::vector<seconds_t> starts;
    starts.reserve(t.size());
    for (const log_record& r : t.records()) starts.push_back(r.start);
    radix_sort_i64(starts);
    rep.interarrivals.reserve(starts.size());
    for (std::size_t i = 0; i + 1 < starts.size(); ++i) {
        rep.interarrivals.push_back(
            static_cast<double>(log_display(starts[i + 1] - starts[i])));
    }
    if (rep.interarrivals.size() < 2) return;
    stats::empirical_distribution ed(rep.interarrivals);
    // The fast regime is fitted wherever it has points (an empty fit
    // otherwise); the slow one only when some gap exceeds tail_split,
    // since its range ends at the largest gap.
    rep.fast_regime = stats::fit_ccdf_tail(ed, 2.0, cfg.tail_split);
    if (ed.max() > cfg.tail_split) {
        const double hi = std::min(cfg.tail_max, ed.max());
        rep.slow_regime = stats::fit_ccdf_tail(ed, cfg.tail_split, hi);
    }
    // Each gap is binned at the time of its earlier event.
    const std::span<const seconds_t> gap_times(starts.data(),
                                               rep.interarrivals.size());
    rep.interarrival_binned = stats::bin_means(
        gap_times, rep.interarrivals, cfg.temporal_bin, horizon);
    rep.interarrival_weekly_fold =
        stats::folded_bin_means(gap_times, rep.interarrivals,
                                seconds_per_week, cfg.temporal_bin);
    rep.interarrival_daily_fold =
        stats::folded_bin_means(gap_times, rep.interarrivals,
                                seconds_per_day, cfg.temporal_bin);
}

// --- Lengths (Fig 19).
void transfer_lengths(const trace& t, transfer_layer_report& rep) {
    rep.lengths.reserve(t.size());
    for (const log_record& r : t.records()) {
        rep.lengths.push_back(static_cast<double>(log_display(r.duration)));
    }
    if (rep.lengths.size() >= 2) {
        rep.length_fit = stats::fit_lognormal_mle(rep.lengths);
    }
}

// --- Bandwidth (Fig 20).
void transfer_bandwidth(const trace& t, const transfer_layer_config& cfg,
                        transfer_layer_report& rep) {
    rep.bandwidths_bps.reserve(t.size());
    std::uint64_t congested = 0;
    for (const log_record& r : t.records()) {
        rep.bandwidths_bps.push_back(r.avg_bandwidth_bps);
        if (r.avg_bandwidth_bps < cfg.congestion_threshold_bps) ++congested;
    }
    rep.congestion_bound_fraction =
        static_cast<double>(congested) / static_cast<double>(t.size());
}

}  // namespace

std::vector<layer_task> transfer_layer_tasks(const trace& t,
                                             const transfer_layer_config& cfg,
                                             transfer_layer_report& rep) {
    LSM_EXPECTS(!t.empty());
    LSM_EXPECTS(cfg.temporal_bin > 0);
    LSM_EXPECTS(cfg.tail_split > 1.0 && cfg.tail_split < cfg.tail_max);
    const seconds_t horizon =
        t.window_length() > 0 ? t.window_length() : seconds_per_day;
    return {
        {"concurrency",
         [&t, horizon, &cfg, &rep] {
             transfer_concurrency(t, horizon, cfg, rep);
         }},
        {"interarrivals",
         [&t, horizon, &cfg, &rep] {
             transfer_interarrivals(t, horizon, cfg, rep);
         }},
        {"lengths", [&t, &rep] { transfer_lengths(t, rep); }},
        {"bandwidth", [&t, &cfg, &rep] { transfer_bandwidth(t, cfg, rep); }},
    };
}

transfer_layer_report analyze_transfer_layer(
    const trace& t, const transfer_layer_config& cfg) {
    transfer_layer_report rep;
    run_in_order(transfer_layer_tasks(t, cfg, rep));
    return rep;
}

}  // namespace lsm::characterize
