#include "characterize/session_builder.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <numeric>
#include <ostream>

#include "core/trace_io.h"

#include "core/contracts.h"
#include "core/radix_sort.h"
#include "obs/metrics.h"

namespace lsm::characterize {

/// Raw write access to a session_table's columns, sized once up front so
/// every shard can fill its own slice concurrently.
struct session_table_writer {
    session_table::head* heads;
    seconds_t* starts;
    seconds_t* ends;
    object_id* objects;

    static session_table_writer sized(session_table& t, std::size_t sessions,
                                      std::size_t transfers) {
        t.heads_.resize(sessions);
        t.starts_.resize(transfers);
        t.ends_.resize(transfers);
        t.objects_.resize(transfers);
        return {t.heads_.data(), t.starts_.data(), t.ends_.data(),
                t.objects_.data()};
    }
};

session session_table::operator[](std::size_t i) const {
    const head& h = heads_[i];
    const std::size_t last =
        i + 1 < heads_.size() ? heads_[i + 1].first : starts_.size();
    const std::size_t n = last - h.first;
    return session{h.client,
                   h.start,
                   h.end,
                   static_cast<std::uint32_t>(n),
                   {starts_.data() + h.first, n},
                   {ends_.data() + h.first, n},
                   {objects_.data() + h.first, n}};
}

void session_table::push_back(const session& s) {
    heads_.push_back(head{s.client, s.start, s.end, starts_.size()});
    starts_.insert(starts_.end(), s.transfer_starts.begin(),
                   s.transfer_starts.end());
    ends_.insert(ends_.end(), s.transfer_ends.begin(), s.transfer_ends.end());
    objects_.insert(objects_.end(), s.transfer_objects.begin(),
                    s.transfer_objects.end());
}

namespace {

/// A record as the timeline sort carries it, so sorting never reaches
/// back into the 64-byte records. `time` is the sort key under the
/// client: the rebased (start, duration) pair packed into one word, or
/// the rebased start alone when the pair does not fit (see time_codec).
struct timeline_key {
    std::uint64_t time;
    client_id client;
    std::uint32_t record;
    object_id object;
};

/// Packs and unpacks timeline_key::time as start << dur_bits | duration,
/// both rebased at their minimum, using only the bits their ranges need
/// (a 28-day trace needs about 22 + 17), so the radix sort skips every
/// unused byte plane. Only unsanitized input with huge ranges needs more
/// than 63 bits; then the key holds the full rebased start and an extra
/// radix pass orders durations first.
struct time_codec {
    std::uint64_t min_s = 0;  ///< smallest radix_key_i64(start)
    std::uint64_t min_d = 0;  ///< smallest radix_key_i64(duration)
    int dur_bits = 0;
    bool packed = true;

    std::uint64_t rebased_duration(const log_record& r) const {
        return radix_key_i64(r.duration) - min_d;
    }
    std::uint64_t time(const log_record& r) const {
        const std::uint64_t s = radix_key_i64(r.start) - min_s;
        return packed ? (s << dur_bits) | rebased_duration(r) : s;
    }
    seconds_t start(const timeline_key& k) const {
        return unkey((packed ? k.time >> dur_bits : k.time) + min_s);
    }
    seconds_t duration(const timeline_key& k,
                       std::span<const log_record> recs) const {
        if (!packed) return recs[k.record].duration;
        return unkey((k.time & ((std::uint64_t{1} << dur_bits) - 1)) + min_d);
    }

private:
    static seconds_t unkey(std::uint64_t k) {
        return static_cast<seconds_t>(k ^ (1ULL << 63));
    }
};

/// Records partitioned into shards by client-id range: shard s holds keys
/// [bounds[s], bounds[s+1]), every record of a client lands in one shard,
/// and the shards in order cover ascending client ids. Within a shard the
/// keys start in record order; sort_shard puts them in timeline order.
struct timeline {
    std::unique_ptr<timeline_key[]> keys;
    std::vector<std::size_t> bounds;
    time_codec codec;

    std::span<timeline_key> shard(std::size_t s) const {
        return {keys.get() + bounds[s], keys.get() + bounds[s + 1]};
    }
};

/// Splits `recs` into one client-id range per pool lane, holding
/// balanced record counts. A histogram of client ids (rebased at the
/// minimum, bucketed by the top bits of the range, about one bucket per
/// record of a shard) is cut where its running count crosses each
/// multiple of n / nshards; a bucket, and so a client, is never split, so
/// one huge client leaves its shard oversized and others empty. Each
/// record chunk then scatters its keys into every shard at a prefix-sum
/// offset, so each shard's keys keep record order.
timeline partition_timeline(std::span<const log_record> recs,
                            thread_pool& pool) {
    const std::size_t n = recs.size();
    const std::size_t nshards = pool.size();
    // Smallest and largest client, start and duration (as radix keys).
    struct extent {
        client_id min_c = ~client_id{0}, max_c = 0;
        std::uint64_t min_s = ~0ULL, max_s = 0, min_d = ~0ULL, max_d = 0;
        void add(const extent& o) {
            min_c = std::min(min_c, o.min_c);
            max_c = std::max(max_c, o.max_c);
            min_s = std::min(min_s, o.min_s);
            max_s = std::max(max_s, o.max_s);
            min_d = std::min(min_d, o.min_d);
            max_d = std::max(max_d, o.max_d);
        }
    };
    const extent all = map_reduce_shards(
        pool, n, extent{},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
            extent e;
            for (std::size_t i = lo; i < hi; ++i) {
                const std::uint64_t s = radix_key_i64(recs[i].start);
                const std::uint64_t d = radix_key_i64(recs[i].duration);
                e.add({recs[i].client, recs[i].client, s, s, d, d});
            }
            return e;
        },
        [](extent a, const extent& b) {
            a.add(b);
            return a;
        });
    timeline tl;
    tl.keys = std::make_unique_for_overwrite<timeline_key[]>(n);
    if (n > 0) {
        tl.codec.min_s = all.min_s;
        tl.codec.min_d = all.min_d;
        const auto bits = [](std::uint64_t range) {
            return static_cast<int>(std::bit_width(range));
        };
        tl.codec.dur_bits = bits(all.max_d - all.min_d);
        tl.codec.packed = bits(all.max_s - all.min_s) + tl.codec.dur_bits <= 63;
    }

    // chunk_counts[c * nshards + s]: records of chunk c bound for shard s.
    std::vector<std::uint32_t> bucket_shard;
    std::vector<std::size_t> chunk_counts(nshards * nshards, 0);
    const int bucket_bits =
        std::clamp(static_cast<int>(std::bit_width(n / nshards)), 1, 16);
    const int shift = std::max(
        0, static_cast<int>(std::bit_width(all.max_c - all.min_c)) -
               bucket_bits);
    const auto bucket = [&](client_id c) {
        return static_cast<std::size_t>((c - all.min_c) >> shift);
    };
    if (nshards == 1) {
        chunk_counts[0] = n;
    } else {
        const std::size_t nbuckets = std::size_t{1} << bucket_bits;
        std::vector<std::uint32_t> hist(nshards * nbuckets, 0);
        pool.run_shards(nshards, [&](std::size_t c) {
            const auto [lo, hi] = shard_bounds(n, nshards, c);
            std::uint32_t* h = hist.data() + c * nbuckets;
            for (std::size_t i = lo; i < hi; ++i) ++h[bucket(recs[i].client)];
        });
        bucket_shard.resize(nbuckets);
        std::size_t s = 0;
        std::size_t seen = 0;
        for (std::size_t b = 0; b < nbuckets; ++b) {
            bucket_shard[b] = static_cast<std::uint32_t>(s);
            for (std::size_t c = 0; c < nshards; ++c) {
                const std::uint32_t k = hist[c * nbuckets + b];
                chunk_counts[c * nshards + s] += k;
                seen += k;
            }
            while (s + 1 < nshards && seen * nshards >= (s + 1) * n) ++s;
        }
    }

    // Shard bounds, then each chunk's write cursor inside every shard.
    tl.bounds.assign(nshards + 1, 0);
    std::vector<std::size_t> cursor(nshards * nshards);
    for (std::size_t s = 0; s < nshards; ++s) {
        std::size_t at = tl.bounds[s];
        for (std::size_t c = 0; c < nshards; ++c) {
            cursor[c * nshards + s] = at;
            at += chunk_counts[c * nshards + s];
        }
        tl.bounds[s + 1] = at;
    }
    pool.run_shards(nshards, [&](std::size_t c) {
        const auto [lo, hi] = shard_bounds(n, nshards, c);
        std::size_t* at = cursor.data() + c * nshards;
        for (std::size_t i = lo; i < hi; ++i) {
            const log_record& r = recs[i];
            const std::size_t s =
                nshards == 1 ? 0 : bucket_shard[bucket(r.client)];
            tl.keys[at[s]++] = timeline_key{tl.codec.time(r), r.client,
                                            static_cast<std::uint32_t>(i),
                                            r.object};
        }
    });
    return tl;
}

/// Sorts one shard into timeline order: (client, start, duration), exact
/// ties in record order. The LSD radix passes are stable, so sorting by
/// the time word and then by client composes to the full order.
void sort_shard(const timeline& tl, std::size_t s,
                std::span<const log_record> recs) {
    const std::span<timeline_key> keys = tl.shard(s);
    const auto scratch =
        std::make_unique_for_overwrite<timeline_key[]>(keys.size());
    const std::span<timeline_key> buf(scratch.get(), keys.size());
    if (!tl.codec.packed) {
        radix_sort_by_u64(keys, buf, [&](const timeline_key& k) {
            return tl.codec.rebased_duration(recs[k.record]);
        });
    }
    radix_sort_by_u64(keys, buf,
                      [](const timeline_key& k) { return k.time; });
    radix_sort_by_u64(keys, buf,
                      [](const timeline_key& k) { return k.client; });
}

/// The sessionizer walk, shared by every path. Visits one sorted shard; a
/// transfer opens a new session when its client differs from the open
/// session's or its start lies more than `timeout` past the latest end of
/// the session so far. With `out` it writes session heads from index
/// `first_session` and transfers from column offset tl.bounds[s]; either
/// way it returns the number of sessions.
std::size_t walk_shard(const timeline& tl, std::size_t s,
                       std::span<const log_record> recs, seconds_t timeout,
                       const session_table_writer* out,
                       std::size_t first_session) {
    const std::span<const timeline_key> keys = tl.shard(s);
    session_table::head* h = out != nullptr
                                 ? out->heads + first_session
                                 : nullptr;
    std::size_t sessions = 0;
    client_id client = 0;
    seconds_t end = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const timeline_key& k = keys[i];
        const seconds_t start = tl.codec.start(k);
        const seconds_t e = start + tl.codec.duration(k, recs);
        const std::size_t at = tl.bounds[s] + i;
        if (sessions == 0 || k.client != client || start - end > timeout) {
            client = k.client;
            end = e;
            if (h != nullptr) h[sessions] = {client, start, end, at};
            ++sessions;
        } else {
            end = std::max(end, e);
            if (h != nullptr) h[sessions - 1].end = end;
        }
        if (out != nullptr) {
            out->starts[at] = start;
            out->ends[at] = e;
            out->objects[at] = k.object;
        }
    }
    return sessions;
}

/// One sorted shard holding every record: the serial counting paths.
timeline serial_timeline(std::span<const log_record> recs) {
    LSM_EXPECTS(recs.size() < 0xFFFFFFFFULL);
    thread_pool serial(1);
    timeline tl = partition_timeline(recs, serial);
    sort_shard(tl, 0, recs);
    return tl;
}

}  // namespace

std::vector<seconds_t> session_set::off_times() const {
    std::vector<seconds_t> offs;
    const auto heads = sessions.heads();
    for (std::size_t i = 0; i + 1 < heads.size(); ++i) {
        if (heads[i].client != heads[i + 1].client) continue;
        // By construction of the sessionizer this exceeds the timeout.
        offs.push_back(heads[i + 1].start - heads[i].end);
    }
    return offs;
}

std::vector<std::size_t> session_set::order_by_start() const {
    // Sessions are (client, start)-sorted, so a stable sort by start alone
    // yields (start, client) order, ties in index order.
    struct keyed {
        std::uint64_t start;
        std::size_t index;
    };
    const auto heads = sessions.heads();
    std::vector<keyed> v(heads.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = {radix_key_i64(heads[i].start), i};
    }
    std::vector<keyed> scratch;
    radix_sort_by_u64(v, scratch, [](const keyed& k) { return k.start; });
    std::vector<std::size_t> idx(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) idx[i] = v[i].index;
    return idx;
}

session_set build_sessions(std::span<const log_record> recs,
                           seconds_t timeout, thread_pool& pool,
                           obs::registry* metrics) {
    LSM_EXPECTS(timeout >= 0);
    LSM_EXPECTS(recs.size() < 0xFFFFFFFFULL);
    obs::scoped_timer t_all(metrics, "characterize/sessionize");
    const std::size_t nshards = pool.size();
    timeline tl;
    {
        obs::scoped_timer t_part(metrics, "partition");
        tl = partition_timeline(recs, pool);
    }
    if (metrics != nullptr) {
        auto& h = metrics->get_histogram(
            "characterize/sessionize/shard_records",
            obs::histogram::exponential_bounds(1024.0, 4.0, 10));
        for (std::size_t s = 0; s < nshards; ++s) {
            h.observe(static_cast<double>(tl.bounds[s + 1] - tl.bounds[s]));
        }
    }

    // Each shard sorts and counts its sessions; the prefix sum of the
    // counts places every shard's heads, and the shard bounds its
    // transfers, so the walk writes straight into the final columns.
    session_set out;
    out.timeout = timeout;
    obs::scoped_timer t_shards(metrics, "shards");
    std::vector<std::size_t> first(nshards + 1, 0);
    pool.run_shards(nshards, [&](std::size_t s) {
        sort_shard(tl, s, recs);
        first[s + 1] = walk_shard(tl, s, recs, timeout, nullptr, 0);
    });
    std::partial_sum(first.begin(), first.end(), first.begin());
    const session_table_writer w =
        session_table_writer::sized(out.sessions, first.back(), recs.size());
    pool.run_shards(nshards, [&](std::size_t s) {
        walk_shard(tl, s, recs, timeout, &w, first[s]);
    });
    obs::add_counter(metrics, "characterize/sessionize/sessions_built",
                     out.sessions.size());
    return out;
}

session_set build_sessions(const trace& t, seconds_t timeout) {
    thread_pool serial(1);
    return build_sessions(t.records(), timeout, serial);
}

session_set build_sessions(const trace& t, seconds_t timeout,
                           thread_pool& pool, obs::registry* metrics) {
    return build_sessions(t.records(), timeout, pool, metrics);
}

namespace {

/// Joins a numeric list with ';' — the in-row list separator of the
/// session CSV (',' separates columns).
template <typename T>
void write_joined(std::ostream& out, std::span<const T> v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out << ';';
        out << v[i];
    }
}

}  // namespace

void write_sessions_csv_header(std::ostream& out, seconds_t timeout) {
    out << "lsm-sessions-v1,timeout=" << timeout << '\n'
        << "client,start,end,num_transfers,transfer_starts,"
           "transfer_ends,transfer_objects\n";
}

void write_session_csv_row(std::ostream& out, const session& s) {
    out << s.client << ',' << s.start << ',' << s.end << ','
        << s.num_transfers << ',';
    write_joined(out, s.transfer_starts);
    out << ',';
    write_joined(out, s.transfer_ends);
    out << ',';
    write_joined(out, s.transfer_objects);
    out << '\n';
}

void write_sessions_csv(const session_set& s, std::ostream& out) {
    write_sessions_csv_header(out, s.timeout);
    for (const session& x : s.sessions) write_session_csv_row(out, x);
}

void write_sessions_csv_file(const session_set& s,
                             const std::string& path) {
    std::ofstream out(path);
    if (!out) throw trace_io_error("cannot open for writing: " + path);
    write_sessions_csv(s, out);
    if (!out) throw trace_io_error("write failed: " + path);
}

std::uint64_t count_sessions(const trace& t, seconds_t timeout) {
    LSM_EXPECTS(timeout >= 0);
    const auto recs = std::span<const log_record>(t.records());
    return walk_shard(serial_timeline(recs), 0, recs, timeout, nullptr, 0);
}

std::vector<std::uint64_t> session_count_sweep(
    const trace& t, const std::vector<seconds_t>& timeouts) {
    for (seconds_t timeout : timeouts) LSM_EXPECTS(timeout >= 0);
    const auto recs = std::span<const log_record>(t.records());
    const timeline tl = serial_timeline(recs);
    std::vector<std::uint64_t> counts;
    counts.reserve(timeouts.size());

    // With non-negative durations the walk's running end — max end over
    // the client's records seen so far — is the same no matter where the
    // sessions split: at a split r.start exceeds the running end, so the
    // naive reset to r.end() equals max(running end, r.end()). The gap
    // sequence is therefore timeout-independent, and
    //   count(T) = #clients + #{gaps > T},
    // answered for every sweep point from one sorted gap list. A negative
    // duration breaks that invariant, so such traces (never produced by a
    // sanitized pipeline) take the naive per-timeout walk instead.
    const bool any_negative_duration =
        std::any_of(recs.begin(), recs.end(),
                    [](const log_record& r) { return r.duration < 0; });
    if (any_negative_duration) {
        for (seconds_t timeout : timeouts) {
            counts.push_back(walk_shard(tl, 0, recs, timeout, nullptr, 0));
        }
        return counts;
    }
    std::vector<seconds_t> gaps;
    gaps.reserve(recs.size());
    std::uint64_t num_clients = 0;
    client_id cur_client = 0;
    seconds_t cur_end = 0;
    for (const timeline_key& k : tl.shard(0)) {
        const seconds_t start = tl.codec.start(k);
        const seconds_t end = start + tl.codec.duration(k, recs);
        if (num_clients == 0 || k.client != cur_client) {
            ++num_clients;
            cur_client = k.client;
            cur_end = end;
        } else {
            gaps.push_back(start - cur_end);
            cur_end = std::max(cur_end, end);
        }
    }
    radix_sort_i64(gaps);
    for (seconds_t timeout : timeouts) {
        const auto it = std::upper_bound(gaps.begin(), gaps.end(), timeout);
        counts.push_back(num_clients +
                         static_cast<std::uint64_t>(gaps.end() - it));
    }
    return counts;
}

}  // namespace lsm::characterize
