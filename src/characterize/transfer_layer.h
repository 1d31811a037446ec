// Transfer-layer characterization (paper §5): concurrent transfers,
// transfer interarrival times and their two-regime tail, transfer lengths
// (client stickiness), and transfer bandwidth.
#pragma once

#include <vector>

#include "characterize/layer_task.h"
#include "core/trace.h"
#include "stats/empirical.h"
#include "stats/fitting.h"

namespace lsm::characterize {

struct transfer_layer_config {
    /// Bin width of the temporal profiles (paper: 900 s).
    seconds_t temporal_bin = 900;
    /// Boundary between the two interarrival tail regimes (paper: 100 s).
    double tail_split = 100.0;
    /// Upper end of the x-range used for the slow-regime tail fit.
    double tail_max = 2000.0;
    /// Transfers with average bandwidth below this are counted as
    /// congestion-bound (bits/s). 25 kbps sits below every access-class
    /// spike of Fig 20 but above the congestion mass.
    double congestion_threshold_bps = 25000.0;
};

struct transfer_layer_report {
    // --- Fig 15 / Fig 16: concurrent transfers ---
    std::vector<double> concurrency_binned;   ///< mean active per bin
    std::vector<double> concurrency_weekly_fold;
    std::vector<double> concurrency_daily_fold;
    /// Marginal sample of active-transfer counts (one per minute).
    std::vector<double> concurrency_marginal;

    // --- Fig 17 / Fig 18: transfer interarrivals ---
    std::vector<double> interarrivals;  ///< ⌊t+1⌋ convention
    stats::tail_fit fast_regime;   ///< tail exponent up to tail_split
    stats::tail_fit slow_regime;   ///< tail exponent beyond tail_split
    /// Mean interarrival per temporal bin over the whole trace (Fig 18
    /// left) and its weekly/daily folds (center/right).
    std::vector<double> interarrival_binned;
    std::vector<double> interarrival_weekly_fold;
    std::vector<double> interarrival_daily_fold;

    // --- Fig 19: transfer lengths ---
    std::vector<double> lengths;  ///< ⌊t+1⌋ convention
    stats::lognormal_fit length_fit;

    // --- Fig 20: transfer bandwidth ---
    std::vector<double> bandwidths_bps;
    double congestion_bound_fraction = 0.0;
};

transfer_layer_report analyze_transfer_layer(
    const trace& t, const transfer_layer_config& cfg = {});

/// The transfer layer's independent parts (layer_task.h), in the order
/// analyze_transfer_layer runs them: "concurrency", "interarrivals"
/// (with their tail fits and bin means), "lengths" (with the lognormal
/// fit) and "bandwidth". Checks the preconditions now; the tasks fill
/// `rep` and reference every argument, which must outlive them.
std::vector<layer_task> transfer_layer_tasks(const trace& t,
                                             const transfer_layer_config& cfg,
                                             transfer_layer_report& rep);

}  // namespace lsm::characterize
