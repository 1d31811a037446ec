#include "characterize/client_layer.h"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "core/contracts.h"
#include "core/radix_sort.h"
#include "stats/timeseries.h"

namespace lsm::characterize {

namespace {

// --- Concurrency: a client is active while one of its sessions is on.
void client_concurrency(const session_set& sessions, seconds_t horizon,
                        const client_layer_config& cfg,
                        client_layer_report& rep) {
    const auto heads = sessions.sessions.heads();
    std::vector<stats::interval> session_intervals;
    session_intervals.reserve(heads.size());
    for (const session_table::head& s : heads) {
        // Zero-length sessions still occupy their start instant.
        session_intervals.push_back(
            {s.start, std::max(s.end, s.start + 1)});
    }
    rep.concurrency_series = stats::concurrency_series(
        session_intervals, cfg.concurrency_sample_step, horizon);
    rep.concurrency_binned = stats::mean_concurrency_series(
        session_intervals, cfg.temporal_bin, horizon);

    const auto bins_per_week =
        static_cast<std::size_t>(seconds_per_week / cfg.temporal_bin);
    const auto bins_per_day =
        static_cast<std::size_t>(seconds_per_day / cfg.temporal_bin);
    rep.concurrency_weekly_fold =
        stats::fold_series(rep.concurrency_binned, bins_per_week);
    rep.concurrency_daily_fold =
        stats::fold_series(rep.concurrency_binned, bins_per_day);

    // A constant series (e.g. one session spanning the window) has no
    // variance, so its ACF is undefined: leave it empty.
    const auto& series = rep.concurrency_series;
    if (std::adjacent_find(series.begin(), series.end(),
                           std::not_equal_to<>()) == series.end()) {
        return;
    }
    const std::size_t max_lag = std::min(cfg.acf_max_lag, series.size() - 1);
    rep.concurrency_acf = stats::autocorrelation(series, max_lag);
}

// --- Client interarrivals (Fig 5): consecutive session arrivals from
// different clients, in global start order.
void client_interarrivals(const session_set& sessions,
                          client_layer_report& rep) {
    const auto heads = sessions.sessions.heads();
    const auto order = sessions.order_by_start();
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
        const session_table::head& a = heads[order[i]];
        const session_table::head& b = heads[order[i + 1]];
        if (a.client == b.client) continue;
        rep.client_interarrivals.push_back(
            static_cast<double>(log_display(b.start - a.start)));
    }
}

// A Zipf fit needs two ranks; with fewer the fit stays empty.
stats::zipf_fit fit_interest(const std::vector<double>& profile) {
    return profile.size() >= 2 ? stats::fit_zipf_loglog(profile)
                               : stats::zipf_fit{};
}

// --- Interest profiles (Fig 7). Sessions arrive (client, start)-sorted
// and own consecutive slices of the transfer columns, so each client's
// run of sessions gives both counts: the run length, and the span of
// transfer offsets it covers. The profiles depend only on the multisets
// of counts (rank_frequency_profile sorts them).
void client_interest(const session_set& sessions, client_layer_report& rep) {
    const auto heads = sessions.sessions.heads();
    std::vector<std::uint64_t> tcounts;
    std::vector<std::uint64_t> scounts;
    const std::uint64_t covered = sessions.sessions.transfer_starts().size();
    for (std::size_t i = 0; i < heads.size();) {
        std::size_t j = i;
        while (j < heads.size() && heads[j].client == heads[i].client) ++j;
        const std::uint64_t next =
            j < heads.size() ? heads[j].first : covered;
        tcounts.push_back(next - heads[i].first);
        scounts.push_back(j - i);
        i = j;
    }
    rep.distinct_clients = tcounts.size();
    rep.transfer_interest_profile = stats::rank_frequency_profile(tcounts);
    rep.transfer_interest_fit = fit_interest(rep.transfer_interest_profile);
    rep.session_interest_profile = stats::rank_frequency_profile(scounts);
    rep.session_interest_fit = fit_interest(rep.session_interest_profile);
}

// --- Fig 2: AS and country diversity. (asn, ip) pairs pack into one
// 64-bit key, so one radix sort yields, per AS run, both the transfer
// count (run length) and the distinct-IP count (sub-runs).
void client_diversity(const trace& t, client_layer_report& rep) {
    {
        std::vector<std::uint64_t> keys;
        keys.reserve(t.size());
        for (const log_record& r : t.records()) {
            keys.push_back((static_cast<std::uint64_t>(r.asn) << 32) | r.ip);
        }
        radix_sort_u64(keys);
        for (std::size_t i = 0; i < keys.size();) {
            const std::uint64_t asn = keys[i] >> 32;
            std::size_t j = i;
            std::size_t distinct_ips = 0;
            while (j < keys.size() && (keys[j] >> 32) == asn) {
                std::size_t k = j;
                while (k < keys.size() && keys[k] == keys[j]) ++k;
                ++distinct_ips;
                j = k;
            }
            rep.as_by_transfers.push_back({static_cast<as_number>(asn),
                                           j - i, distinct_ips});
            i = j;
        }
    }
    // Country codes pack into a u16 whose ascending numeric order equals
    // the codes' lexicographic order, so a flat count array replaces the
    // ordered map without reordering the output.
    {
        std::vector<std::uint64_t> by_country(65536, 0);
        for (const log_record& r : t.records()) {
            const auto packed = static_cast<std::uint16_t>(
                (static_cast<unsigned char>(r.country.c[0]) << 8) |
                static_cast<unsigned char>(r.country.c[1]));
            ++by_country[packed];
        }
        for (std::size_t packed = 0; packed < by_country.size(); ++packed) {
            if (by_country[packed] == 0) continue;
            country_code cc;
            cc.c[0] = static_cast<char>(packed >> 8);
            cc.c[1] = static_cast<char>(packed & 0xFF);
            rep.countries.push_back({to_string(cc), by_country[packed]});
        }
    }
    std::sort(rep.as_by_transfers.begin(), rep.as_by_transfers.end(),
              [](const as_profile& a, const as_profile& b) {
                  if (a.transfers != b.transfers)
                      return a.transfers > b.transfers;
                  return a.asn < b.asn;
              });
    std::sort(rep.countries.begin(), rep.countries.end(),
              [](const country_profile& a, const country_profile& b) {
                  if (a.transfers != b.transfers)
                      return a.transfers > b.transfers;
                  return a.country < b.country;
              });
}

}  // namespace

std::vector<layer_task> client_layer_tasks(const trace& t,
                                           const session_set& sessions,
                                           const client_layer_config& cfg,
                                           client_layer_report& rep) {
    LSM_EXPECTS(cfg.concurrency_sample_step > 0);
    LSM_EXPECTS(cfg.temporal_bin > 0);
    LSM_EXPECTS(cfg.temporal_bin % cfg.concurrency_sample_step == 0);
    // Per-client transfer counts are read off the session columns.
    LSM_EXPECTS(sessions.sessions.transfer_starts().size() == t.size());
    rep.total_transfers = t.size();
    rep.total_sessions = sessions.sessions.size();
    const seconds_t horizon =
        t.window_length() > 0 ? t.window_length() : seconds_per_day;
    return {
        {"concurrency",
         [&sessions, horizon, &cfg, &rep] {
             client_concurrency(sessions, horizon, cfg, rep);
         }},
        {"interarrivals",
         [&sessions, &rep] { client_interarrivals(sessions, rep); }},
        {"interest", [&sessions, &rep] { client_interest(sessions, rep); }},
        {"diversity", [&t, &rep] { client_diversity(t, rep); }},
    };
}

client_layer_report analyze_client_layer(const trace& t,
                                         const session_set& sessions,
                                         const client_layer_config& cfg) {
    client_layer_report rep;
    run_in_order(client_layer_tasks(t, sessions, cfg, rep));
    return rep;
}

}  // namespace lsm::characterize
