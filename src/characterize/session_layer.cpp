#include "characterize/session_layer.h"

#include <algorithm>
#include <cmath>

#include "core/contracts.h"
#include "stats/descriptive.h"
#include "stats/linreg.h"
#include "stats/sorted_sample.h"
#include "stats/timeseries.h"

namespace lsm::characterize {

value_zipf fit_value_zipf(const std::vector<double>& samples) {
    const stats::sorted_sample counts(samples);
    LSM_EXPECTS(counts.min() > 0.0);
    value_zipf vz;
    vz.values.assign(counts.values().begin(), counts.values().end());
    vz.frequencies.reserve(counts.distinct());
    const auto total = static_cast<double>(samples.size());
    for (std::size_t r = 0; r < counts.distinct(); ++r) {
        vz.frequencies.push_back(static_cast<double>(counts.count(r)) /
                                 total);
    }
    // A single distinct value carries no slope information: return the
    // profile with an empty fit.
    if (vz.values.size() < 2) return vz;
    // Log-log regression of frequency on value.
    stats::linreg_result lr =
        stats::loglog_regression(vz.values, vz.frequencies);
    vz.fit.alpha = -lr.slope;
    vz.fit.c = std::pow(10.0, lr.intercept);
    vz.fit.r_squared = lr.r_squared;
    return vz;
}

namespace {

void session_all(const session_set& sessions,
                 const session_layer_config& cfg, session_layer_report& rep) {
    rep.on_times.reserve(sessions.sessions.size());
    rep.transfers_per_session.reserve(sessions.sessions.size());
    std::vector<seconds_t> starts;
    starts.reserve(sessions.sessions.size());
    std::uint64_t overlapping_pairs = 0;
    std::uint64_t consecutive_pairs = 0;
    for (const session& s : sessions.sessions) {
        rep.on_times.push_back(
            static_cast<double>(log_display(s.on_time())));
        rep.transfers_per_session.push_back(
            static_cast<double>(s.num_transfers));
        starts.push_back(s.start);

        // Intra-session interarrivals of transfer starts (Fig 14) and
        // transfer OFF / overlap structure (§2.2, Fig 1).
        seconds_t running_end =
            s.transfer_starts.empty() ? 0 : s.transfer_ends.front();
        for (std::size_t i = 0; i + 1 < s.transfer_starts.size(); ++i) {
            rep.intra_session_interarrivals.push_back(
                static_cast<double>(log_display(
                    s.transfer_starts[i + 1] - s.transfer_starts[i])));
            const seconds_t off = s.transfer_starts[i + 1] - running_end;
            if (off > 0) {
                rep.transfer_off_times.push_back(
                    static_cast<double>(log_display(off)));
            } else {
                overlapping_pairs += 1;
            }
            consecutive_pairs += 1;
            running_end =
                std::max(running_end, s.transfer_ends[i + 1]);
        }
    }
    if (rep.on_times.size() >= 2) {
        rep.on_fit = stats::fit_lognormal_mle(rep.on_times);
    }
    rep.overlap_fraction =
        consecutive_pairs > 0
            ? static_cast<double>(overlapping_pairs) /
                  static_cast<double>(consecutive_pairs)
            : 0.0;

    for (seconds_t off : sessions.off_times()) {
        rep.off_times.push_back(static_cast<double>(off));
    }
    if (!rep.off_times.empty()) {
        rep.off_fit = stats::fit_exponential_mle(rep.off_times);
    }

    rep.transfers_per_session_zipf =
        fit_value_zipf(rep.transfers_per_session);

    if (rep.intra_session_interarrivals.size() >= 2) {
        rep.intra_fit =
            stats::fit_lognormal_mle(rep.intra_session_interarrivals);
    }

    // Fig 10: mean ON time by starting hour.
    std::vector<double> on_raw;
    on_raw.reserve(sessions.sessions.size());
    for (const session& s : sessions.sessions) {
        on_raw.push_back(static_cast<double>(s.on_time()));
    }
    rep.on_time_by_hour =
        stats::folded_bin_means(starts, on_raw, seconds_per_day,
                                cfg.hour_bin);
    double sum = 0.0, mx = 0.0;
    for (double v : rep.on_time_by_hour) {
        sum += v;
        mx = std::max(mx, v);
    }
    const double mean_hour =
        sum / static_cast<double>(rep.on_time_by_hour.size());
    rep.on_hour_max_over_mean = mean_hour > 0.0 ? mx / mean_hour : 0.0;
}

}  // namespace

std::vector<layer_task> session_layer_tasks(const session_set& sessions,
                                            const session_layer_config& cfg,
                                            session_layer_report& rep) {
    LSM_EXPECTS(!sessions.sessions.empty());
    LSM_EXPECTS(cfg.hour_bin > 0 && seconds_per_day % cfg.hour_bin == 0);
    return {{"all", [&sessions, &cfg, &rep] {
                 session_all(sessions, cfg, rep);
             }}};
}

session_layer_report analyze_session_layer(const session_set& sessions,
                                           const session_layer_config& cfg) {
    session_layer_report rep;
    run_in_order(session_layer_tasks(sessions, cfg, rep));
    return rep;
}

}  // namespace lsm::characterize
