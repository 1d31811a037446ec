// Execution tracer: per-thread buffers of Chrome-trace-event slices,
// flushed at shutdown to a JSON document that chrome://tracing and
// Perfetto load directly ({"traceEvents":[...]}).
//
// Model: each thread records begin/end ('B'/'E') slice events into its
// own buffer — appends never take a lock or touch another thread's
// cache lines, so instrumentation scales with the pool. Buffers are
// bounded: once a thread's buffer reaches capacity, new slices are
// dropped (and counted), but the 'E' of an already-recorded 'B' is
// always appended so every flushed trace is stack-balanced per thread.
// Thread ids are the process-stable lane slots of obs::detail::
// thread_slot(), so the same pool worker keeps the same tid across
// pipelines within a process.
//
// Enabling: the tracer is ambient, not plumbed through configs. CLIs
// construct one and install it with global_tracer_guard; every
// scoped_timer span and every core/parallel shard then lights up for
// free. The disabled cost is one relaxed atomic load per slice site.
// Tracing never feeds back into pipeline logic, so traced runs are
// byte-identical to untraced runs (pinned by the determinism tests).
//
// Lifetime rules: flush (write_json*) only after instrumented work has
// completed — it snapshots the buffers without stopping writers — and
// keep the tracer installed for strictly longer than any slice that
// started under it (scoped_slice/scoped_timer cache the pointer).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lsm::obs {

class tracer {
public:
    /// `capacity_per_thread` caps the number of events each thread may
    /// buffer (memory grows lazily with use, the cap is not
    /// preallocated).
    explicit tracer(std::size_t capacity_per_thread = 1 << 18);

    tracer(const tracer&) = delete;
    tracer& operator=(const tracer&) = delete;
    ~tracer();

    /// The ambient tracer every instrumentation site checks; nullptr
    /// (the default) disables tracing. Prefer global_tracer_guard over
    /// calling set_global directly.
    static tracer* global() noexcept {
        return g_tracer.load(std::memory_order_relaxed);
    }
    static void set_global(tracer* t) noexcept {
        g_tracer.store(t, std::memory_order_relaxed);
    }

    /// Opens a slice on the calling thread. Returns true if the event
    /// was recorded; the caller must call end_slice() iff it was.
    /// `args_json`, when non-empty, is a pre-rendered JSON object (e.g.
    /// R"({"shard":3})") attached as the slice's "args".
    bool begin_slice(std::string_view name,
                     std::string_view args_json = {}) noexcept;
    void end_slice() noexcept;

    /// One-off instant event ('i', thread scope).
    void instant(std::string_view name) noexcept;

    /// Events dropped across all threads because a buffer was full.
    std::uint64_t dropped() const;
    /// Events currently buffered across all threads (flushed or not).
    std::uint64_t recorded() const;

    /// Writes the whole trace as one JSON document ({"traceEvents":
    /// [...]}), loadable by Perfetto / chrome://tracing. Call after
    /// instrumented work has completed.
    void write_json(std::ostream& out) const;
    void write_json_file(const std::string& path) const;

private:
    struct event {
        std::string name;  // empty for 'E'
        std::string args;  // pre-rendered JSON object, may be empty
        std::uint64_t ts_ns = 0;
        char phase = 'B';
    };

    struct thread_buffer {
        explicit thread_buffer(std::uint32_t id) : tid(id) {}
        std::uint32_t tid;
        std::vector<event> events;
        std::uint64_t dropped = 0;
    };

    thread_buffer& local_buffer();
    std::uint64_t now_ns() const noexcept {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }
    bool push(thread_buffer& buf, event&& e) noexcept;

    static std::atomic<tracer*> g_tracer;

    const std::uint64_t instance_id_;
    const std::size_t capacity_;
    const std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<thread_buffer>> buffers_;
};

/// RAII slice against an explicit tracer (pass tracer::global() for the
/// ambient one); a null tracer or a dropped begin makes the destructor
/// a no-op.
class scoped_slice {
public:
    explicit scoped_slice(tracer* t, std::string_view name,
                          std::string_view args_json = {}) noexcept
        : tracer_(t != nullptr && t->begin_slice(name, args_json)
                      ? t
                      : nullptr) {}
    ~scoped_slice() {
        if (tracer_ != nullptr) tracer_->end_slice();
    }

    scoped_slice(const scoped_slice&) = delete;
    scoped_slice& operator=(const scoped_slice&) = delete;

    bool recording() const { return tracer_ != nullptr; }

private:
    tracer* tracer_;
};

/// Installs a tracer as the ambient global for a scope (tests, CLIs)
/// and restores the previous one on exit.
class global_tracer_guard {
public:
    explicit global_tracer_guard(tracer* t) noexcept
        : prev_(tracer::global()) {
        tracer::set_global(t);
    }
    ~global_tracer_guard() { tracer::set_global(prev_); }

    global_tracer_guard(const global_tracer_guard&) = delete;
    global_tracer_guard& operator=(const global_tracer_guard&) = delete;

private:
    tracer* prev_;
};

}  // namespace lsm::obs
