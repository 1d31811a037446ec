// Out-of-core sessionization: spill-and-merge under a resident-record
// budget.
//
// build_sessions (session_builder.h) holds the whole trace plus its
// session set in memory; at the ROADMAP's north-star scale that is a
// billion-record working set. This module sessionizes from a bounded
// record window instead, with the classic external-sort discipline:
//
//   1. CHUNK   — pull at most `max_resident_records` records from the
//                source into the only full-width resident buffer;
//   2. SORT    — run the chunk through build_sessions on the pool; its
//                transfer columns list the chunk in stable (client,
//                start, duration) order, the order every path walks;
//   3. SPILL   — serialize that order to one compact run (client, start,
//                duration, object — all the sessionizer walk consumes)
//                and hand it to a background writer thread, so run I/O
//                overlaps the next chunk's sort;
//   4. MERGE   — k-way heap-merge all runs, breaking exact key ties by
//                run index (runs are created in input order, so the
//                tie-break restores the global stable sort), and feed
//                the merged stream through build_sessions in batches of
//                about a budget of records, emitting each session once
//                a later one has opened (the open last session of a
//                batch starts the next batch).
//
// Because the merged stream equals the global stable (client, start,
// duration) order of the input, the emitted session sequence is
// IDENTICAL to build_sessions' canonical (client, start) output — for
// every pool size and every budget. DESIGN.md §11 gives the argument
// and the spill run file format ("lsm-spill-v1": magic, record count,
// FNV-1a-64 payload checksum, then packed 26-byte records).
//
// Inputs that fit the budget never touch disk: the first underfull
// chunk goes straight through build_sessions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "characterize/session_builder.h"
#include "core/ingest.h"
#include "core/parallel.h"
#include "core/trace.h"
#include "obs/fwd.h"

namespace lsm::characterize {

struct spill_options {
    seconds_t timeout = default_session_timeout;
    /// Largest number of full-width log_records resident at once; the
    /// chunk size of the spill pipeline. 0 = unbounded (pure in-memory
    /// sort + walk, no spill). The merge holds one open cursor per run
    /// (about records/budget runs total), so the budget
    /// should stay large enough to keep that fan-in under the process
    /// file-descriptor limit.
    std::size_t max_resident_records = 0;
    /// Directory for spill run files; empty uses the system temp
    /// directory. Runs are deleted as soon as the merge drains them.
    std::string spill_dir;
    /// Optional metrics sink: characterize/spill/* counters, the
    /// resident-records high-water gauge, and sessionize_spill spans.
    obs::registry* metrics = nullptr;
};

/// Pulls the next at-most `max` records into `out` (cleared first) and
/// returns how many were produced; 0 ends the stream. The callee owns
/// any file cursor state.
using record_source =
    std::function<std::size_t(std::vector<log_record>& out,
                              std::size_t max)>;

/// Sessionizes a record stream under the budget, invoking `emit` once
/// per session in canonical (client, start) order — byte-identical to
/// the sequence build_sessions(trace, timeout) produces from the same
/// records, for every pool size. Sessions are emitted as they close, so
/// callers can stream them to a file without materializing a
/// session_set; an emitted session's spans are valid only during the
/// call. Throws trace_io_error when a spill run cannot be
/// written back or read back intact.
void sessionize_spill(const record_source& source,
                      const spill_options& opts, thread_pool& pool,
                      const std::function<void(const session&)>& emit);

/// Convenience wrapper: out-of-core pipeline over an in-memory trace
/// (bounds the sessionizer's working set, not the trace itself),
/// collecting the emitted sessions into a session_set. Identical to
/// build_sessions(t, opts.timeout) for every budget and pool size.
session_set build_sessions_spill(const trace& t,
                                 const spill_options& opts,
                                 thread_pool& pool);

// ---------------------------------------------------------------------
// Spill run files (exposed for tests and tooling)
// ---------------------------------------------------------------------

inline constexpr std::string_view k_spill_magic = "lsm-spill-v1";

/// The compact per-transfer record a spill run stores: exactly the
/// fields the sessionizer walk consumes, 26 packed bytes on disk.
struct spill_record {
    client_id client = 0;
    seconds_t start = 0;
    seconds_t duration = 0;
    object_id object = 0;

    seconds_t end() const { return start + duration; }
};

/// Serializes records into a complete run file image (header included).
std::string encode_spill_run(const std::vector<spill_record>& recs);

/// Reads a run file back. Strict by default; under a non-strict policy
/// a truncated payload salvages the longest whole-record prefix
/// (category "truncated"), a checksum mismatch rejects the run
/// (category "checksum"), and trailing bytes are quarantined (category
/// "trailing_bytes") — the same longest-valid-prefix discipline as the
/// binary trace reader.
std::vector<spill_record> read_spill_run_file(
    const std::string& path, const ingest_options& opts = {},
    ingest_report* report = nullptr);

}  // namespace lsm::characterize
