// Observability subsystem: a thread-safe metrics registry plus RAII phase
// timers, shared by every heavy pipeline in the library.
//
// Instruments:
//   * counter   — monotonic, striped across cache lines so concurrent
//                 shard workers increment without bouncing one hot line;
//   * gauge     — a signed level with a high-water mark (e.g. concurrent
//                 streams, event-queue depth);
//   * histogram — fixed bucket bounds chosen at registration; observe()
//                 is a branch-free-ish search plus one relaxed increment;
//   * span      — hierarchical wall-clock phase timings built by
//                 scoped_timer (e.g. `characterize/sessionize/shards`).
//
// Naming scheme: `layer/phase/name`, slash-separated, e.g.
// `world/records_emitted` or `characterize/sessionize/shard_records`.
// Spans use the same scheme; a scoped_timer with a bare segment name
// nests under the innermost open span of the calling thread, while a
// slash-separated name is resolved absolutely from the root — that is
// how phases running on pool workers (where no span is open) land in
// the right place in the tree.
//
// Disabled mode: every pipeline config carries `obs::registry* metrics`
// defaulting to nullptr. All instrumentation sites guard on the pointer
// (scoped_timer accepts nullptr and compiles to two branches), so the
// disabled pipeline does no allocation, takes no lock, and reads no
// clock — the observability overhead is a predictable never-taken
// branch per phase, not per record.
//
// Thread safety: registration (get_counter/get_gauge/get_histogram,
// span-node creation) takes a mutex and is meant for cold paths; the
// returned references are stable for the registry's lifetime and all
// updates through them are lock-free atomics, safe from any number of
// pool workers concurrently. Metrics never feed back into pipeline
// logic, so instrumented runs stay byte-identical to disabled runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/contracts.h"

namespace lsm::obs {

class registry;
class time_series;
class tracer;

namespace detail {
/// Dense per-thread slot used to pick a counter stripe. Threads get
/// consecutive slots in creation order, so a fixed pool maps onto
/// distinct stripes.
unsigned thread_slot();
}  // namespace detail

/// Monotonic counter. add() is wait-free: each thread increments its own
/// cache-line-padded stripe; value() sums the stripes.
class counter {
public:
    void add(std::uint64_t n = 1) noexcept {
        stripes_[detail::thread_slot() % k_stripes].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    std::uint64_t value() const noexcept {
        std::uint64_t sum = 0;
        for (const stripe& s : stripes_) {
            sum += s.v.load(std::memory_order_relaxed);
        }
        return sum;
    }

private:
    static constexpr std::size_t k_stripes = 8;
    struct alignas(64) stripe {
        std::atomic<std::uint64_t> v{0};
    };
    stripe stripes_[k_stripes];
};

/// Signed level gauge with a high-water mark. All operations are atomic;
/// under concurrent add() the high-water mark is exact for the values
/// the gauge actually passed through.
class gauge {
public:
    void set(std::int64_t v) noexcept {
        value_.store(v, std::memory_order_relaxed);
        raise_max(v);
    }

    void add(std::int64_t delta) noexcept {
        const std::int64_t now =
            value_.fetch_add(delta, std::memory_order_relaxed) + delta;
        raise_max(now);
    }

    /// Records an externally computed candidate high-water mark without
    /// moving the level.
    void record_max(std::int64_t v) noexcept { raise_max(v); }

    std::int64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    std::int64_t max_value() const noexcept {
        return max_.load(std::memory_order_relaxed);
    }

private:
    void raise_max(std::int64_t v) noexcept {
        std::int64_t cur = max_.load(std::memory_order_relaxed);
        while (v > cur && !max_.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }

    std::atomic<std::int64_t> value_{0};
    std::atomic<std::int64_t> max_{0};
};

/// Fixed-bucket histogram. Bucket i counts observations with
/// x <= bounds[i]; one implicit overflow bucket counts the rest.
/// Bounds are fixed at registration; observe() is lock-free.
class histogram {
public:
    explicit histogram(std::vector<double> upper_bounds);

    void observe(double x) noexcept;

    /// Upper bounds, ascending (no overflow entry).
    const std::vector<double>& bounds() const { return bounds_; }
    /// Count per bucket; index bounds_.size() is the overflow bucket.
    std::uint64_t bucket_count(std::size_t i) const {
        return counts_[i].load(std::memory_order_relaxed);
    }
    std::uint64_t total_count() const noexcept;
    double sum() const noexcept {
        return sum_.load(std::memory_order_relaxed);
    }

    /// Quantile estimate by linear interpolation inside the bucket that
    /// contains rank q * total_count(), the Prometheus
    /// histogram_quantile convention: the first bucket interpolates
    /// from min(0, bounds[0]), and a rank landing in the overflow
    /// bucket saturates at the highest bound. Returns 0 on an empty
    /// histogram. q must be in [0, 1].
    double quantile(double q) const noexcept;

    /// Geometric bucket bounds: first, first*factor, ... (count bounds).
    /// Requires first > 0, factor > 1, count >= 1.
    static std::vector<double> exponential_bounds(double first,
                                                  double factor,
                                                  std::size_t count);
    /// Linear bucket bounds: first, first+step, ... (count bounds).
    static std::vector<double> linear_bounds(double first, double step,
                                             std::size_t count);

private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
    std::atomic<double> sum_{0.0};
};

/// One node of the phase-span tree. Wall time is inclusive (a parent's
/// time covers its children); concurrent sibling spans (phases running
/// on different workers) may overlap, so sibling sums can legitimately
/// exceed the parent on multi-threaded runs.
class span_node {
public:
    span_node(std::string name, span_node* parent, registry* owner)
        : name_(std::move(name)), parent_(parent), owner_(owner) {}

    const std::string& name() const { return name_; }
    span_node* parent() const { return parent_; }
    registry* owner() const { return owner_; }

    /// Find-or-create the child with the given segment name.
    span_node& child(std::string_view segment);

    void record(std::uint64_t wall_ns) noexcept {
        total_ns_.fetch_add(wall_ns, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
    }

    std::uint64_t total_ns() const noexcept {
        return total_ns_.load(std::memory_order_relaxed);
    }
    std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }

    /// Children in creation order. The returned pointers are stable;
    /// the vector itself is copied under the node's lock.
    std::vector<const span_node*> children() const;

    /// Slash-joined path from the root (the root itself contributes
    /// nothing): "characterize/sessionize/shards".
    std::string path() const;

private:
    const std::string name_;
    span_node* const parent_;
    registry* const owner_;
    std::atomic<std::uint64_t> total_ns_{0};
    std::atomic<std::uint64_t> count_{0};
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<span_node>> children_;
};

/// The metrics registry: owns every instrument and the span tree.
/// Instruments are registered on first use and live as long as the
/// registry; names follow the `layer/phase/name` scheme.
class registry {
public:
    registry();
    // Out of line: the time-series map's deleter needs the complete
    // type, which only obs/timeseries.h provides.
    ~registry();
    registry(const registry&) = delete;
    registry& operator=(const registry&) = delete;

    counter& get_counter(std::string_view name);
    gauge& get_gauge(std::string_view name);
    /// First registration fixes the bucket bounds; later calls with the
    /// same name return the existing histogram and ignore `bounds`.
    histogram& get_histogram(std::string_view name,
                             std::vector<double> bounds);

    /// Registration overloads that also attach a help string — emitted
    /// as the family's `# HELP` line by the Prometheus exporter. The
    /// first non-empty help for a name wins; later strings are ignored.
    counter& get_counter(std::string_view name, std::string_view help) {
        set_help(name, help);
        return get_counter(name);
    }
    gauge& get_gauge(std::string_view name, std::string_view help) {
        set_help(name, help);
        return get_gauge(name);
    }
    histogram& get_histogram(std::string_view name,
                             std::vector<double> bounds,
                             std::string_view help) {
        set_help(name, help);
        return get_histogram(name, std::move(bounds));
    }
    /// Attaches (first-wins) a help string to a metric name.
    void set_help(std::string_view name, std::string_view help);
    /// The help string registered for `name`; empty when none.
    std::string help(std::string_view name) const;
    /// Sim-time series (obs/timeseries.h). First registration fixes the
    /// bucket width; later calls return the existing series and ignore
    /// `bucket_width`. The returned series is single-writer — record
    /// into it from serial phases only.
    time_series& get_time_series(std::string_view name,
                                 std::int64_t bucket_width);

    span_node& root_span() { return root_; }
    const span_node& root_span() const { return root_; }
    /// Resolves a slash-separated path from the root, creating nodes as
    /// needed.
    span_node& span_at(std::string_view path);

    /// Snapshot accessors for exporters and tests (sorted by name).
    std::vector<std::pair<std::string, const counter*>> counters() const;
    std::vector<std::pair<std::string, const gauge*>> gauges() const;
    std::vector<std::pair<std::string, const histogram*>> histograms()
        const;
    std::vector<std::pair<std::string, const time_series*>> series()
        const;

    /// Exporters. JSON is one self-contained object:
    ///   {"schema":"lsm-metrics-v1","counters":{...},"gauges":{...},
    ///    "histograms":{...},"spans":{...}}
    /// The Prometheus-style format is flat text, one sample per line,
    /// with the hierarchical name carried in a `name=` label.
    void write_json(std::ostream& out) const;
    void write_prometheus(std::ostream& out) const;
    void write_json_file(const std::string& path) const;
    void write_prometheus_file(const std::string& path) const;
    /// Flat CSV dump of every registered time series, one row per
    /// bucket (including empty buckets, so the rows plot directly):
    ///   series,bucket_width_s,bucket_start_s,count,sum,mean,max
    void write_series_csv(std::ostream& out) const;
    void write_series_csv_file(const std::string& path) const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<counter>, std::less<>>
        counters_;
    std::map<std::string, std::unique_ptr<gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<histogram>, std::less<>>
        histograms_;
    std::map<std::string, std::unique_ptr<time_series>, std::less<>>
        series_;
    std::map<std::string, std::string, std::less<>> help_;
    span_node root_;
};

/// RAII phase timer. With a null registry it does nothing (the disabled
/// mode every config defaults to). A bare segment name nests under the
/// calling thread's innermost open span of the same registry; a
/// slash-separated path is resolved absolutely from the root.
///
/// When an ambient tracer is installed (obs/trace_event.h), every
/// scoped_timer additionally emits a Chrome-trace slice named after the
/// span — independent of the registry, so a run traced without metrics
/// still lights up.
class scoped_timer {
public:
    scoped_timer(registry* reg, std::string_view name) noexcept;
    ~scoped_timer();

    scoped_timer(const scoped_timer&) = delete;
    scoped_timer& operator=(const scoped_timer&) = delete;

    /// The node this timer records into; nullptr when disabled.
    span_node* node() const { return node_; }

private:
    span_node* node_ = nullptr;
    span_node* saved_current_ = nullptr;
    tracer* tracer_ = nullptr;  // non-null iff a slice was recorded
    // Self-profiler hook (obs/profiler.h): while a profiler runs, the
    // timer publishes its span's interned collapsed path for the
    // sampler and restores the previous one on destruction.
    const std::string* prof_saved_ = nullptr;
    bool prof_published_ = false;
    std::chrono::steady_clock::time_point start_{};
};

/// Null-safe convenience wrappers for one-shot instrumentation sites.
/// Hot loops should instead hoist the instrument reference out of the
/// loop (`counter* c = reg ? &reg->get_counter(...) : nullptr`).
inline void add_counter(registry* reg, std::string_view name,
                        std::uint64_t n = 1) {
    if (reg != nullptr) reg->get_counter(name).add(n);
}

inline void set_gauge(registry* reg, std::string_view name,
                      std::int64_t v) {
    if (reg != nullptr) reg->get_gauge(name).set(v);
}

inline void record_gauge_max(registry* reg, std::string_view name,
                             std::int64_t v) {
    if (reg != nullptr) reg->get_gauge(name).record_max(v);
}

inline void observe(registry* reg, std::string_view name,
                    std::vector<double> bounds, double x) {
    if (reg != nullptr) {
        reg->get_histogram(name, std::move(bounds)).observe(x);
    }
}

}  // namespace lsm::obs
