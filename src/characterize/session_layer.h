// Session-layer characterization (paper §4): session ON/OFF times,
// transfers per session, intra-session transfer interarrivals, and the
// temporal (in)dependence of session length.
#pragma once

#include <vector>

#include "characterize/layer_task.h"
#include "characterize/session_builder.h"
#include "stats/fitting.h"

namespace lsm::characterize {

struct session_layer_config {
    /// Bin width of the ON-time-vs-hour profile (Fig 10): one hour.
    seconds_t hour_bin = seconds_per_hour;
};

/// Zipf fit of a VALUE-frequency profile (P[N = x] ∝ x^-alpha) — the form
/// the paper fits in Fig 13, as opposed to the RANK-frequency Zipf of
/// Fig 7.
struct value_zipf {
    std::vector<double> values;       ///< distinct values, ascending
    std::vector<double> frequencies;  ///< share of samples at each value
    stats::zipf_fit fit;
};

struct session_layer_report {
    // --- Fig 11: session ON times (⌊t+1⌋ convention) ---
    std::vector<double> on_times;
    stats::lognormal_fit on_fit;

    // --- Fig 12: session OFF times ---
    std::vector<double> off_times;
    stats::exponential_fit off_fit;

    // --- Fig 13: transfers per session ---
    std::vector<double> transfers_per_session;
    value_zipf transfers_per_session_zipf;

    // --- Fig 14: intra-session transfer interarrivals ---
    std::vector<double> intra_session_interarrivals;
    stats::lognormal_fit intra_fit;

    // --- §2.2 / Fig 1: transfer OFF ("think" / "active OFF") times ---
    /// Gaps between the end of one transfer and the start of the next
    /// within a session, where positive (overlapping transfers produce
    /// no OFF period). By the session definition every value is <= T_o.
    /// ⌊t+1⌋ convention.
    std::vector<double> transfer_off_times;
    /// Fraction of within-session consecutive transfer pairs that
    /// overlap (Fig 1's simultaneous two-feed viewing).
    double overlap_fraction = 0.0;

    // --- Fig 10: mean ON time by hour of session start ---
    std::vector<double> on_time_by_hour;  ///< 24 entries
    /// Ratio max/mean of on_time_by_hour; near 1 indicates the weak
    /// temporal dependence the paper reports.
    double on_hour_max_over_mean = 0.0;
};

session_layer_report analyze_session_layer(
    const session_set& sessions, const session_layer_config& cfg = {});

/// The session layer as layer tasks (layer_task.h): one part, "all".
/// Its samples come from one pass over the sessions, so splitting it
/// would repeat that pass. Checks the preconditions now; the task fills
/// `rep` and references every argument, which must outlive it.
std::vector<layer_task> session_layer_tasks(const session_set& sessions,
                                            const session_layer_config& cfg,
                                            session_layer_report& rep);

/// Builds the value-frequency profile of a positive integer sample and
/// fits a Zipf law P[N = x] = c * x^-alpha by log-log regression.
value_zipf fit_value_zipf(const std::vector<double>& samples);

}  // namespace lsm::characterize
