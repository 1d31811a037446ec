// Client-layer characterization (paper §3): concurrency profile,
// client/session interarrival times, arrival-process structure, the
// Zipf-like client interest profile, and topological/geographical
// diversity.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "characterize/layer_task.h"
#include "characterize/session_builder.h"
#include "core/trace.h"
#include "stats/empirical.h"
#include "stats/fitting.h"

namespace lsm::characterize {

struct client_layer_config {
    /// Sampling step of the c(t) concurrency series. The paper's ACF is in
    /// minutes (peaks at lag 1440 = one day), so 60 s is the default.
    seconds_t concurrency_sample_step = 60;
    /// Bin width of the temporal profiles (paper: 900 s / 15 min, Fig 4).
    seconds_t temporal_bin = 900;
    /// Maximum ACF lag in sample steps (paper Fig 8 shows up to ~4500 min).
    std::size_t acf_max_lag = 4500;
};

/// Per-AS traffic aggregates, ranked by transfer count — Fig 2.
struct as_profile {
    as_number asn = 0;
    std::uint64_t transfers = 0;
    std::uint64_t distinct_ips = 0;
};

struct country_profile {
    std::string country;
    std::uint64_t transfers = 0;
};

struct client_layer_report {
    // --- Fig 3 / Fig 4 / Fig 8: number of active clients over time ---
    /// c(t) sampled every concurrency_sample_step seconds.
    std::vector<double> concurrency_series;
    /// Mean active clients per temporal_bin (Fig 4 left).
    std::vector<double> concurrency_binned;
    /// Fig 4 center: fold of concurrency_binned onto one week.
    std::vector<double> concurrency_weekly_fold;
    /// Fig 4 right: fold onto one day.
    std::vector<double> concurrency_daily_fold;
    /// Fig 8: ACF of concurrency_series, lags 0..acf_max_lag. Empty when
    /// the series is constant, where the ACF is undefined.
    std::vector<double> concurrency_acf;

    // --- Fig 5: client interarrival times ---
    /// Interarrivals (⌊t+1⌋ convention) between consecutive session
    /// arrivals belonging to different clients.
    std::vector<double> client_interarrivals;

    // --- Fig 7: client interest profiles ---
    // Both fits stay empty (all zero) with fewer than two clients.
    /// Rank/frequency share of transfers per client, descending.
    std::vector<double> transfer_interest_profile;
    stats::zipf_fit transfer_interest_fit;
    /// Rank/frequency share of sessions per client, descending.
    std::vector<double> session_interest_profile;
    stats::zipf_fit session_interest_fit;

    // --- Fig 2: topological / geographical diversity ---
    /// Per-AS aggregates sorted descending by transfers.
    std::vector<as_profile> as_by_transfers;
    /// Country shares sorted descending by transfers.
    std::vector<country_profile> countries;

    std::uint64_t total_transfers = 0;
    std::uint64_t total_sessions = 0;
    std::uint64_t distinct_clients = 0;
};

/// Runs the full client-layer analysis. `sessions` must be built from `t`;
/// requires the session columns to hold exactly t.size() transfers.
client_layer_report analyze_client_layer(
    const trace& t, const session_set& sessions,
    const client_layer_config& cfg = {});

/// The client layer's independent parts (layer_task.h), in the order
/// analyze_client_layer runs them: "concurrency" (c(t), its binned mean,
/// folds and ACF), "interarrivals", "interest" (rank-frequency profiles
/// and Zipf fits) and "diversity" (AS/IP and country shares). Checks the
/// preconditions and fills the totals of `rep` now; the tasks fill the
/// rest and reference every argument, which must outlive them.
std::vector<layer_task> client_layer_tasks(const trace& t,
                                           const session_set& sessions,
                                           const client_layer_config& cfg,
                                           client_layer_report& rep);

}  // namespace lsm::characterize
