#include "characterize/session_spill.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <thread>
#include <tuple>

#include "core/checksum.h"
#include "core/contracts.h"
#include "core/trace_io.h"
#include "obs/metrics.h"

namespace lsm::characterize {

namespace {

constexpr std::size_t k_spill_header_bytes = 12 + 8 + 8;
constexpr std::size_t k_spill_record_bytes = 8 + 8 + 8 + 2;
/// Buffered-read granule for merge cursors; runs stay sequential so a
/// modest buffer amortizes the syscalls without growing the footprint.
constexpr std::size_t k_cursor_buf_bytes = std::size_t{64} << 10;
/// How many serialized runs may sit in the flusher queue before the
/// producer blocks — enough to overlap sort and write, small enough to
/// stay inside the memory budget.
constexpr std::size_t k_flush_queue_depth = 2;

template <typename T>
void put_scalar(std::string& out, T v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T get_scalar(const char* p) {
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

void pack_spill_record(std::string& out, const spill_record& r) {
    put_scalar<std::uint64_t>(out, r.client);
    put_scalar<std::int64_t>(out, r.start);
    put_scalar<std::int64_t>(out, r.duration);
    put_scalar<std::uint16_t>(out, r.object);
}

spill_record unpack_spill_record(const char* p) {
    spill_record r;
    r.client = get_scalar<std::uint64_t>(p);
    r.start = get_scalar<std::int64_t>(p + 8);
    r.duration = get_scalar<std::int64_t>(p + 16);
    r.object = get_scalar<std::uint16_t>(p + 24);
    return r;
}

std::string finish_spill_run(std::string&& payload, std::uint64_t count) {
    std::string out;
    out.reserve(k_spill_header_bytes + payload.size());
    out.append(k_spill_magic);
    put_scalar<std::uint64_t>(out, count);
    put_scalar<std::uint64_t>(out,
                              fnv1a64_words(payload.data(), payload.size()));
    out.append(payload);
    return out;
}

/// Transfer i of session s as the record it was built from.
log_record transfer_record(const session& s, std::size_t i) {
    return {.client = s.client,
            .object = s.transfer_objects[i],
            .start = s.transfer_starts[i],
            .duration = s.transfer_ends[i] - s.transfer_starts[i]};
}

/// Serializes the transfers of `sorted` — a chunk run through the
/// sessionizer, whose columns list the transfers in timeline order — into
/// a complete run file image.
std::string encode_run(const session_table& sorted) {
    const std::size_t n = sorted.transfer_starts().size();
    std::string payload;
    payload.reserve(n * k_spill_record_bytes);
    for (const session& s : sorted) {
        for (std::size_t i = 0; i < s.num_transfers; ++i) {
            const log_record r = transfer_record(s, i);
            pack_spill_record(payload, {r.client, r.start, r.duration,
                                        r.object});
        }
    }
    return finish_spill_run(std::move(payload), n);
}

/// Background run writer — the flusher-thread pattern: the sort loop
/// enqueues finished run images and immediately starts the next chunk
/// while this thread does the disk writes. The queue is bounded so a
/// slow disk back-pressures the producer instead of buffering unbounded
/// runs in memory. Run files are temporaries: the destructor removes
/// every file it wrote.
class spill_writer {
public:
    spill_writer(std::string dir, obs::registry* metrics)
        : dir_(std::move(dir)), metrics_(metrics) {
        std::random_device rd;
        token_ = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
        worker_ = std::thread([this] { run(); });
    }

    ~spill_writer() {
        {
            std::lock_guard lock(mu_);
            done_ = true;
        }
        cv_.notify_all();
        if (worker_.joinable()) worker_.join();
        for (const std::string& p : paths_) {
            std::error_code ec;
            std::filesystem::remove(p, ec);
        }
    }

    spill_writer(const spill_writer&) = delete;
    spill_writer& operator=(const spill_writer&) = delete;

    /// Hands a complete run image to the flusher; blocks while the
    /// queue is at depth. Runs are numbered in enqueue order — the
    /// merge's tie-break key.
    void enqueue(std::string image) {
        std::unique_lock lock(mu_);
        std::string path =
            dir_ + "/lsm-spill-" + hex_token() + "-" +
            std::to_string(paths_.size()) + ".run";
        paths_.push_back(path);
        cv_.wait(lock, [this] {
            return queue_.size() < k_flush_queue_depth || !error_.empty();
        });
        if (!error_.empty()) return;  // surfaced by finish()
        queue_.emplace_back(std::move(path), std::move(image));
        cv_.notify_all();
    }

    /// Drains the queue, stops the flusher, and rethrows its first
    /// write error. Returns the run paths in enqueue order.
    std::vector<std::string> finish() {
        {
            std::lock_guard lock(mu_);
            done_ = true;
        }
        cv_.notify_all();
        if (worker_.joinable()) worker_.join();
        if (!error_.empty()) throw trace_io_error(error_);
        return paths_;
    }

private:
    std::string hex_token() const {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(token_));
        return buf;
    }

    void run() {
        for (;;) {
            std::pair<std::string, std::string> item;
            {
                std::unique_lock lock(mu_);
                cv_.wait(lock,
                         [this] { return !queue_.empty() || done_; });
                if (queue_.empty()) return;
                item = std::move(queue_.front());
                queue_.pop_front();
            }
            cv_.notify_all();
            if (!write_one(item.first, item.second)) {
                std::lock_guard lock(mu_);
                // Keep draining (enqueue must not deadlock) but write
                // nothing more; finish() reports the first failure.
                if (error_.empty()) {
                    error_ = "cannot write spill run: " + item.first;
                }
                cv_.notify_all();
            }
        }
    }

    bool write_one(const std::string& path, const std::string& image) {
        {
            std::lock_guard lock(mu_);
            if (!error_.empty()) return true;  // already failed; drop
        }
        obs::scoped_timer t_write(metrics_, "characterize/spill/write");
        std::ofstream out(path, std::ios::binary);
        if (!out) return false;
        out.write(image.data(),
                  static_cast<std::streamsize>(image.size()));
        out.flush();
        if (!out) return false;
        obs::add_counter(metrics_, "characterize/spill/bytes",
                         image.size());
        return true;
    }

    std::string dir_;
    obs::registry* metrics_;
    std::uint64_t token_ = 0;
    std::thread worker_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::pair<std::string, std::string>> queue_;
    std::vector<std::string> paths_;
    std::string error_;
    bool done_ = false;
};

/// Sequential reader over one spill run, with strict validation: the
/// header is checked at open, every record is fed through the running
/// checksum, and exhausting the run verifies it against the header.
class run_cursor {
public:
    explicit run_cursor(const std::string& path) : path_(path) {
        in_.open(path, std::ios::binary);
        if (!in_) throw trace_io_error("cannot open spill run: " + path);
        in_.seekg(0, std::ios::end);
        const std::streamoff size = in_.tellg();
        if (size < 0 ||
            static_cast<std::size_t>(size) < k_spill_header_bytes) {
            throw trace_io_error("spill run: truncated header: " + path);
        }
        char header[k_spill_header_bytes];
        in_.seekg(0);
        in_.read(header, k_spill_header_bytes);
        if (in_.gcount() !=
            static_cast<std::streamsize>(k_spill_header_bytes)) {
            throw trace_io_error("read failed: " + path);
        }
        if (std::string_view(header, k_spill_magic.size()) !=
            k_spill_magic) {
            throw trace_io_error("spill run: bad magic: " + path);
        }
        count_ = get_scalar<std::uint64_t>(header + 12);
        checksum_ = get_scalar<std::uint64_t>(header + 20);
        const std::uint64_t payload =
            static_cast<std::uint64_t>(size) - k_spill_header_bytes;
        if (payload != count_ * k_spill_record_bytes) {
            throw trace_io_error("spill run: payload size mismatch: " +
                                 path);
        }
        buf_.resize(static_cast<std::size_t>(std::min<std::uint64_t>(
            count_ * k_spill_record_bytes, k_cursor_buf_bytes)));
    }

    std::uint64_t size() const { return count_; }

    bool next(spill_record& out) {
        if (pos_ == count_) return false;
        if (blen_ - bpos_ < k_spill_record_bytes) refill();
        const char* p = buf_.data() + bpos_;
        fnv_.feed(p, k_spill_record_bytes);
        out = unpack_spill_record(p);
        bpos_ += k_spill_record_bytes;
        if (++pos_ == count_ && fnv_.final() != checksum_) {
            throw trace_io_error("spill run: checksum mismatch: " + path_);
        }
        return true;
    }

private:
    void refill() {
        const std::size_t keep = blen_ - bpos_;
        std::memmove(buf_.data(), buf_.data() + bpos_, keep);
        bpos_ = 0;
        blen_ = keep;
        const std::uint64_t remaining_bytes =
            (count_ - pos_) * k_spill_record_bytes - keep;
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining_bytes,
                                    buf_.size() - blen_));
        in_.read(buf_.data() + blen_,
                 static_cast<std::streamsize>(want));
        if (in_.gcount() != static_cast<std::streamsize>(want)) {
            throw trace_io_error("read failed: " + path_);
        }
        blen_ += want;
    }

    std::string path_;
    std::ifstream in_;
    std::uint64_t count_ = 0;
    std::uint64_t checksum_ = 0;
    std::uint64_t pos_ = 0;
    fnv_stream fnv_;
    std::vector<char> buf_;
    std::size_t bpos_ = 0;
    std::size_t blen_ = 0;
};

}  // namespace

std::string encode_spill_run(const std::vector<spill_record>& recs) {
    std::string payload;
    payload.reserve(recs.size() * k_spill_record_bytes);
    for (const spill_record& r : recs) pack_spill_record(payload, r);
    return finish_spill_run(std::move(payload), recs.size());
}

std::vector<spill_record> read_spill_run_file(const std::string& path,
                                              const ingest_options& opts,
                                              ingest_report* report) {
    ingest_report local;
    ingest_report& rep = report != nullptr ? *report : local;
    if (rep.file.empty()) rep.file = path;
    const bool strict = opts.on_error == on_error_policy::strict;

    std::ifstream in(path, std::ios::binary);
    if (!in) throw trace_io_error("cannot open spill run: " + path);
    std::string buf((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    if (buf.size() < k_spill_header_bytes) {
        throw trace_io_error("spill run: truncated header (" +
                             std::to_string(buf.size()) + " bytes): " +
                             path);
    }
    if (std::string_view(buf).substr(0, k_spill_magic.size()) !=
        k_spill_magic) {
        throw trace_io_error("spill run: bad magic: " + path);
    }
    const auto count = get_scalar<std::uint64_t>(buf.data() + 12);
    const auto checksum = get_scalar<std::uint64_t>(buf.data() + 20);
    const std::uint64_t have = buf.size() - k_spill_header_bytes;
    // No up-front capacity guard: salvage below bounds every allocation
    // by the bytes actually present, so a lying count cannot size one.
    const char* payload = buf.data() + k_spill_header_bytes;
    std::uint64_t avail = count;
    if (have < count * k_spill_record_bytes) {
        const std::string msg =
            "spill run: truncated payload (have " + std::to_string(have) +
            " of " + std::to_string(count * k_spill_record_bytes) +
            " bytes)";
        if (strict) throw trace_io_error(msg + ": " + path);
        // Longest-valid-prefix salvage: whole trailing records, which
        // the full-payload checksum can no longer vouch for.
        avail = have / k_spill_record_bytes;
        rep.add_error(opts, -1, "truncated", msg);
        rep.salvaged_tail = true;
        rep.reject_bytes(opts,
                         std::string_view(buf).substr(
                             k_spill_header_bytes +
                             static_cast<std::size_t>(
                                 avail * k_spill_record_bytes)),
                         0);
        rep.salvaged_records += avail;
        rep.records_lost += count - avail;
    } else {
        if (have > count * k_spill_record_bytes) {
            const std::string msg =
                "spill run: " +
                std::to_string(have - count * k_spill_record_bytes) +
                " trailing bytes";
            if (strict) throw trace_io_error(msg + ": " + path);
            rep.add_error(opts, -1, "trailing_bytes", msg);
            rep.reject_bytes(opts,
                             std::string_view(buf).substr(
                                 k_spill_header_bytes +
                                 static_cast<std::size_t>(
                                     count * k_spill_record_bytes)),
                             0);
        }
        const std::size_t payload_bytes = static_cast<std::size_t>(
            count * k_spill_record_bytes);
        if (fnv1a64_words(payload, payload_bytes) != checksum) {
            const std::string msg = "spill run: checksum mismatch";
            if (strict) throw trace_io_error(msg + ": " + path);
            rep.add_error(opts, -1, "checksum", msg);
            rep.reject_bytes(
                opts, std::string_view(payload, payload_bytes), 0);
            avail = 0;
            rep.records_lost += count;
        }
    }
    std::vector<spill_record> out;
    out.reserve(static_cast<std::size_t>(avail));
    for (std::uint64_t i = 0; i < avail; ++i) {
        out.push_back(
            unpack_spill_record(payload + i * k_spill_record_bytes));
    }
    rep.records_recovered += avail;
    rep.enforce_cap(opts);
    return out;
}

void sessionize_spill(const record_source& source,
                      const spill_options& opts, thread_pool& pool,
                      const std::function<void(const session&)>& emit) {
    LSM_EXPECTS(opts.timeout >= 0);
    obs::registry* const metrics = opts.metrics;
    obs::scoped_timer t_all(metrics, "characterize/sessionize_spill");

    const bool bounded = opts.max_resident_records > 0;
    std::vector<log_record> chunk;
    if (!bounded) {
        // No budget: pull everything and take the in-memory tail.
        std::vector<log_record> all;
        std::vector<log_record> piece;
        while (source(piece, std::size_t{1} << 20) > 0) {
            all.insert(all.end(), piece.begin(), piece.end());
        }
        obs::record_gauge_max(metrics,
                              "characterize/spill/resident_records",
                              static_cast<std::int64_t>(all.size()));
        obs::scoped_timer t_mem(metrics, "in_memory");
        for (const session& s : build_sessions(all, opts.timeout, pool)
                                    .sessions) {
            emit(s);
        }
        return;
    }

    const std::size_t budget = opts.max_resident_records;
    // Top-up adapter: a source may return short non-empty chunks without
    // being exhausted (e.g. a reader that sanitizes each chunk in
    // place), and only a 0 return ends the stream. Re-pulling until the
    // chunk is full or the source answers 0 makes every chunk exactly
    // `budget` records except the final one — so an underfull chunk
    // proves exhaustion, and the resident set never exceeds the budget.
    std::vector<log_record> topup;
    const auto pull = [&](std::vector<log_record>& out) {
        std::size_t got = source(out, budget);
        while (got > 0 && got < budget) {
            const std::size_t more = source(topup, budget - got);
            if (more == 0) break;
            out.insert(out.end(), topup.begin(), topup.end());
            got += more;
        }
        return got;
    };
    std::size_t n = pull(chunk);
    obs::record_gauge_max(metrics, "characterize/spill/resident_records",
                          static_cast<std::int64_t>(n));
    if (n < budget) {
        // The whole input fit in one underfull chunk; no spill needed.
        obs::scoped_timer t_mem(metrics, "in_memory");
        for (const session& s : build_sessions(chunk, opts.timeout, pool)
                                    .sessions) {
            emit(s);
        }
        return;
    }

    const std::string dir =
        opts.spill_dir.empty()
            ? std::filesystem::temp_directory_path().string()
            : opts.spill_dir;
    spill_writer writer(dir, metrics);
    std::uint64_t chunks = 0;
    std::uint64_t total_records = 0;

    while (n > 0) {
        obs::record_gauge_max(metrics,
                              "characterize/spill/resident_records",
                              static_cast<std::int64_t>(n));
        std::string image;
        {
            // The sessionizer's columns list the chunk's transfers in
            // timeline order: that is the sorted run.
            obs::scoped_timer t_sort(metrics, "chunk_sort");
            image = encode_run(
                build_sessions(chunk, opts.timeout, pool).sessions);
        }
        {
            obs::scoped_timer t_q(metrics, "spill_enqueue");
            writer.enqueue(std::move(image));
        }
        ++chunks;
        total_records += n;
        n = pull(chunk);
    }

    const std::vector<std::string> runs = writer.finish();
    obs::add_counter(metrics, "characterize/spill/chunks", chunks);
    obs::add_counter(metrics, "characterize/spill/records",
                     total_records);
    obs::add_counter(metrics, "characterize/spill/runs", runs.size());

    // K-way merge of the sorted runs, tie-broken by run index. Runs are
    // numbered in chunk order, so the merged stream is the global stable
    // (client, start, duration) order of the input.
    obs::scoped_timer t_merge(metrics, "merge");
    std::vector<run_cursor> cursors;
    cursors.reserve(runs.size());
    for (const std::string& p : runs) cursors.emplace_back(p);

    struct head {
        spill_record rec;
        std::size_t run;
    };
    const auto head_after = [](const head& a, const head& b) {
        return std::tuple(a.rec.client, a.rec.start, a.rec.duration,
                          a.run) >
               std::tuple(b.rec.client, b.rec.start, b.rec.duration,
                          b.run);
    };
    std::vector<head> heap;
    heap.reserve(cursors.size());
    for (std::size_t r = 0; r < cursors.size(); ++r) {
        head h;
        h.run = r;
        if (cursors[r].next(h.rec)) heap.push_back(h);
    }
    std::make_heap(heap.begin(), heap.end(), head_after);

    // The merged stream goes through the sessionizer in batches of about
    // `budget` records, reusing the chunk buffer. A batch's sessions are
    // complete except its last, which may go on in the next batch, so
    // that session's transfers start the next batch. Re-walking them from
    // its first transfer gives the same session, since that transfer
    // opens one either way.
    chunk.clear();
    std::size_t carried = 0;
    std::uint64_t emitted = 0;
    const auto flush = [&](bool last) {
        const session_set batch = build_sessions(chunk, opts.timeout, pool);
        const std::size_t done = batch.sessions.size() - (last ? 0 : 1);
        for (std::size_t i = 0; i < done; ++i) emit(batch.sessions[i]);
        emitted += done;
        if (last) return;
        const session open = batch.sessions[done];
        chunk.clear();
        for (std::size_t i = 0; i < open.num_transfers; ++i) {
            chunk.push_back(transfer_record(open, i));
        }
        carried = chunk.size();
    };
    std::uint64_t merged = 0;
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), head_after);
        head h = heap.back();
        heap.pop_back();
        chunk.push_back({.client = h.rec.client,
                         .object = h.rec.object,
                         .start = h.rec.start,
                         .duration = h.rec.duration});
        ++merged;
        if (chunk.size() >= std::max(budget, 2 * carried)) flush(false);
        if (cursors[h.run].next(h.rec)) {
            heap.push_back(h);
            std::push_heap(heap.begin(), heap.end(), head_after);
        }
    }
    flush(true);
    LSM_ENSURES(merged == total_records);
    obs::add_counter(metrics, "characterize/spill/merged_records",
                     merged);
    obs::add_counter(metrics, "characterize/spill/sessions_emitted",
                     emitted);
    // `writer` goes out of scope here and removes the run files.
}

session_set build_sessions_spill(const trace& t,
                                 const spill_options& opts,
                                 thread_pool& pool) {
    session_set out;
    out.timeout = opts.timeout;
    const auto& recs = t.records();
    std::size_t pos = 0;
    const record_source source =
        [&recs, &pos](std::vector<log_record>& dst, std::size_t max) {
            dst.clear();
            const std::size_t k = std::min(max, recs.size() - pos);
            dst.insert(dst.end(), recs.begin() + pos,
                       recs.begin() + pos + k);
            pos += k;
            return k;
        };
    sessionize_spill(source, opts, pool, [&out](const session& s) {
        out.sessions.push_back(s);
    });
    return out;
}

}  // namespace lsm::characterize
