// Sessionization: grouping a client's transfers into sessions.
//
// The paper defines a session as a maximal interval of client activity in
// which no transfer-free gap exceeds a threshold T_o (§2.2); it uses
// T_o = 1,500 s after observing that the session count stabilizes there
// (Fig 9). This module reconstructs sessions from a flat trace and is the
// basis of both the session-layer and client-layer analyses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "core/trace.h"
#include "obs/fwd.h"

namespace lsm::characterize {

/// The paper's default session timeout (§3.5, footnote 7).
inline constexpr seconds_t default_session_timeout = 1500;

/// One session, as read from a session_table: its scalar fields plus
/// views of its transfers in the table's per-transfer columns. The views
/// stay valid while the table lives and is not appended to.
struct session {
    client_id client = 0;
    seconds_t start = 0;  ///< start of the first transfer
    seconds_t end = 0;    ///< latest end over all transfers (>= start)
    std::uint32_t num_transfers = 0;
    /// Start times of the transfers in this session, ascending.
    std::span<const seconds_t> transfer_starts;
    /// End times of the transfers, aligned with transfer_starts (not
    /// themselves sorted: an earlier transfer may end later).
    std::span<const seconds_t> transfer_ends;
    /// Objects requested, aligned with transfer_starts.
    std::span<const object_id> transfer_objects;

    /// Session ON time l(i) = end - start (§4.2).
    seconds_t on_time() const { return end - start; }
};

/// Sessions stored as columns: one fixed-size head per session, and three
/// flat per-transfer columns holding every session's transfers back to
/// back. Session i owns transfers [head(i).first, head(i+1).first). The
/// table reads as a range of `session` values: size it, index it, iterate
/// it.
class session_table {
public:
    /// Plain data with no member initializers, so the sessionizer can
    /// size the column without zeroing it first.
    struct head {
        client_id client;
        seconds_t start;
        seconds_t end;
        std::uint64_t first;  ///< column offset of the first transfer
    };

    class iterator {
    public:
        using value_type = session;
        using difference_type = std::ptrdiff_t;
        iterator() = default;
        iterator(const session_table* t, std::size_t i) : t_(t), i_(i) {}
        session operator*() const { return (*t_)[i_]; }
        iterator& operator++() {
            ++i_;
            return *this;
        }
        iterator operator++(int) { return iterator(t_, i_++); }
        bool operator==(const iterator& o) const { return i_ == o.i_; }

    private:
        const session_table* t_ = nullptr;
        std::size_t i_ = 0;
    };

    std::size_t size() const { return heads_.size(); }
    bool empty() const { return heads_.empty(); }
    session operator[](std::size_t i) const;
    iterator begin() const { return {this, 0}; }
    iterator end() const { return {this, size()}; }

    /// Appends a copy of `s`; its transfers go to the end of the columns.
    void push_back(const session& s);

    std::span<const head> heads() const { return heads_; }
    std::span<const seconds_t> transfer_starts() const { return starts_; }
    std::span<const seconds_t> transfer_ends() const { return ends_; }
    std::span<const object_id> transfer_objects() const {
        return objects_;
    }

private:
    /// The sessionizer's write access: it sizes the columns once and fills
    /// every slot from the pool's threads.
    friend struct session_table_writer;

    /// Default-initializes on resize, so sizing a column of plain data
    /// leaves its pages untouched until a shard writes them.
    template <typename T>
    struct no_init_allocator : std::allocator<T> {
        template <typename U>
        struct rebind {
            using other = no_init_allocator<U>;
        };
        template <typename U>
        void construct(U* p) {
            ::new (static_cast<void*>(p)) U;
        }
        template <typename U, typename... Args>
        void construct(U* p, Args&&... args) {
            ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
        }
    };
    template <typename T>
    using column = std::vector<T, no_init_allocator<T>>;

    column<head> heads_;
    column<seconds_t> starts_;
    column<seconds_t> ends_;
    column<object_id> objects_;
};

struct session_set {
    seconds_t timeout = default_session_timeout;
    /// Sessions in ascending order of (client, start).
    session_table sessions;

    /// Session OFF times f(i) = t(j) - t(i) - l(i) between consecutive
    /// sessions of the same client (§4.3). Non-negative by construction.
    std::vector<seconds_t> off_times() const;

    /// Sessions sorted by start time (indices into `sessions`).
    std::vector<std::size_t> order_by_start() const;
};

/// Builds sessions with gap threshold `timeout`. A new session starts when
/// the gap between a transfer's start and the latest end of all earlier
/// transfers of the same client exceeds `timeout`. Transfers are taken in
/// (client, start, duration) order, exact ties in record order. Requires
/// timeout >= 0.
session_set build_sessions(const trace& t, seconds_t timeout);

/// Parallel flavor: partitions the records into one shard per pool lane by
/// client-id range, so a client's whole timeline lands in one shard and
/// the shards, taken in order, cover ascending client ids. Each shard
/// sorts and walks its records straight into its own slice of the result,
/// so the output is identical to the sequential overload for every pool
/// size. With a metrics registry the phases are timed under
/// `characterize/sessionize/...` and shard sizes recorded.
session_set build_sessions(const trace& t, seconds_t timeout,
                           thread_pool& pool,
                           obs::registry* metrics = nullptr);

/// The sessionizer over any record span, in any order; the trace
/// overloads and the out-of-core path (session_spill.h) all end here.
session_set build_sessions(std::span<const log_record> records,
                           seconds_t timeout, thread_pool& pool,
                           obs::registry* metrics = nullptr);

/// Writes the two-line session CSV preamble: a `lsm-sessions-v1` magic
/// line carrying the timeout, then the column header. The format is the
/// session-level interchange the out-of-core pipeline emits; both the
/// in-memory and the spill paths produce byte-identical files for the
/// same input (the CI memory-cap gate diffs them).
void write_sessions_csv_header(std::ostream& out, seconds_t timeout);

/// Writes one session row: client, start, end, num_transfers, then the
/// three per-transfer lists joined with ';'.
void write_session_csv_row(std::ostream& out, const session& s);

/// Whole-set convenience: header plus one row per session in set order.
void write_sessions_csv(const session_set& s, std::ostream& out);
void write_sessions_csv_file(const session_set& s,
                             const std::string& path);

/// Counts sessions without materializing them — used for the Fig 9 sweep
/// of session count versus T_o.
std::uint64_t count_sessions(const trace& t, seconds_t timeout);

/// Fig 9: session count for each timeout value in `timeouts`.
std::vector<std::uint64_t> session_count_sweep(
    const trace& t, const std::vector<seconds_t>& timeouts);

}  // namespace lsm::characterize
