// One-call facade over the full hierarchical characterization —
// sanitize, sessionize, and run all three layer analyses, returning the
// bundle the paper's Sections 3-5 correspond to.
#pragma once

#include <stdexcept>
#include <string>

#include "characterize/client_layer.h"
#include "characterize/session_builder.h"
#include "characterize/session_layer.h"
#include "characterize/transfer_layer.h"
#include "core/trace.h"
#include "obs/fwd.h"

namespace lsm::characterize {

/// Thrown when sanitization drops every record of the input trace: the
/// pipeline has nothing to characterize, and the caller (not a contract
/// check) must decide what that means for its data source.
class sanitization_emptied_trace : public std::runtime_error {
public:
    explicit sanitization_emptied_trace(const sanitize_report& rep)
        : std::runtime_error(
              "sanitization dropped every record (" +
              std::to_string(rep.dropped_out_of_window) +
              " out-of-window, " + std::to_string(rep.dropped_negative) +
              " negative); nothing left to characterize"),
          report(rep) {}

    sanitize_report report;
};

struct hierarchical_config {
    seconds_t session_timeout = default_session_timeout;
    client_layer_config client{};
    session_layer_config session{};
    transfer_layer_config transfer{};
    /// Run sanitize() on the input first (recommended for raw logs).
    bool sanitize_first = true;
    /// Worker threads: sessionization is sharded by client and the parts
    /// of the three layer analyses run concurrently. 0 =
    /// hardware_concurrency. The report is identical for every value.
    unsigned threads = 0;
    /// Out-of-core budget: when > 0, sessionization runs through the
    /// spill-and-merge pipeline (characterize/session_spill.h) holding
    /// at most this many records of sessionizer working set at once.
    /// 0 keeps the in-memory sessionizer. The session set is identical
    /// for every value.
    std::size_t max_resident_records = 0;
    /// Directory for spill run files (empty = system temp directory);
    /// only consulted when max_resident_records > 0.
    std::string spill_dir;
    /// Optional metrics sink (`characterize/...` counters, histograms,
    /// and phase spans). Default-off; the report is identical with or
    /// without it (see DESIGN.md, "Observability").
    obs::registry* metrics = nullptr;
};

struct hierarchical_report {
    sanitize_report sanitization{};
    session_set sessions;
    client_layer_report client;
    session_layer_report session;
    transfer_layer_report transfer;
    trace_summary summary{};
};

/// Runs the full pipeline on `t` (modified in place if sanitizing).
/// Requires a non-empty input trace; throws sanitization_emptied_trace if
/// sanitization removes every record.
hierarchical_report characterize_hierarchically(
    trace& t, const hierarchical_config& cfg = {});

}  // namespace lsm::characterize
