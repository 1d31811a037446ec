#include "obs/trace_event.h"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/sinks.h"

namespace lsm::obs {

std::atomic<tracer*> tracer::g_tracer{nullptr};

namespace {

/// Process-wide tracer instance ids, so a thread's cached buffer
/// pointer can never be revived by a new tracer constructed at the same
/// address as a destroyed one.
std::atomic<std::uint64_t> g_next_instance{0};

thread_local std::uint64_t tl_cached_instance = 0;  // 0 = no cache
thread_local void* tl_cached_buffer = nullptr;

void write_escaped(std::ostream& out, std::string_view s) {
    for (const char ch : s) {
        switch (ch) {
            case '"': out << "\\\""; break;
            case '\\': out << "\\\\"; break;
            case '\n': out << "\\n"; break;
            case '\t': out << "\\t"; break;
            default:
                if (static_cast<unsigned char>(ch) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(ch));
                    out << buf;
                } else {
                    out << ch;
                }
        }
    }
}

}  // namespace

tracer::tracer(std::size_t capacity_per_thread)
    : instance_id_(g_next_instance.fetch_add(1,
                                             std::memory_order_relaxed) +
                   1),
      capacity_(capacity_per_thread == 0 ? 1 : capacity_per_thread),
      epoch_(std::chrono::steady_clock::now()) {}

tracer::~tracer() {
    if (global() == this) set_global(nullptr);
}

tracer::thread_buffer& tracer::local_buffer() {
    if (tl_cached_instance == instance_id_) {
        return *static_cast<thread_buffer*>(tl_cached_buffer);
    }
    const unsigned slot = detail::thread_slot();
    std::lock_guard<std::mutex> lock(mutex_);
    thread_buffer* buf = nullptr;
    for (const auto& b : buffers_) {
        if (b->tid == slot) {
            buf = b.get();
            break;
        }
    }
    if (buf == nullptr) {
        buffers_.push_back(std::make_unique<thread_buffer>(slot));
        buf = buffers_.back().get();
    }
    tl_cached_instance = instance_id_;
    tl_cached_buffer = buf;
    return *buf;
}

bool tracer::push(thread_buffer& buf, event&& e) noexcept {
    // 'E' closes an already-recorded 'B' and is exempt from the cap so
    // flushed traces stay stack-balanced; everything else saturates.
    if (e.phase != 'E' && buf.events.size() >= capacity_) {
        ++buf.dropped;
        return false;
    }
    try {
        buf.events.push_back(std::move(e));
        return true;
    } catch (...) {
        ++buf.dropped;
        return false;
    }
}

bool tracer::begin_slice(std::string_view name,
                         std::string_view args_json) noexcept {
    try {
        event e;
        e.name.assign(name);
        e.args.assign(args_json);
        e.phase = 'B';
        e.ts_ns = now_ns();
        return push(local_buffer(), std::move(e));
    } catch (...) {
        return false;
    }
}

void tracer::end_slice() noexcept {
    try {
        event e;
        e.phase = 'E';
        e.ts_ns = now_ns();
        push(local_buffer(), std::move(e));
    } catch (...) {
    }
}

void tracer::instant(std::string_view name) noexcept {
    try {
        event e;
        e.name.assign(name);
        e.phase = 'i';
        e.ts_ns = now_ns();
        push(local_buffer(), std::move(e));
    } catch (...) {
    }
}

std::uint64_t tracer::dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& b : buffers_) total += b->dropped;
    return total;
}

std::uint64_t tracer::recorded() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& b : buffers_) total += b->events.size();
    return total;
}

void tracer::write_json(std::ostream& out) const {
    std::lock_guard<std::mutex> lock(mutex_);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    const auto sep = [&] {
        if (!first) out << ',';
        first = false;
        out << '\n';
    };
    // Metadata: one process, one named row per thread buffer.
    sep();
    out << R"({"ph":"M","name":"process_name","pid":1,"tid":0,)"
        << R"("args":{"name":"lsm"}})";
    for (const auto& b : buffers_) {
        sep();
        out << R"({"ph":"M","name":"thread_name","pid":1,"tid":)"
            << b->tid << R"(,"args":{"name":"lane )" << b->tid
            << "\"}}";
    }
    for (const auto& b : buffers_) {
        for (const event& e : b->events) {
            sep();
            out << "{\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":"
                << b->tid << ",\"ts\":";
            // Microseconds with nanosecond fraction, the unit the
            // trace-event format expects.
            char ts[40];
            std::snprintf(ts, sizeof ts, "%llu.%03u",
                          static_cast<unsigned long long>(e.ts_ns / 1000),
                          static_cast<unsigned>(e.ts_ns % 1000));
            out << ts;
            if (!e.name.empty()) {
                out << ",\"cat\":\"lsm\",\"name\":\"";
                write_escaped(out, e.name);
                out << '"';
            }
            if (e.phase == 'i') out << ",\"s\":\"t\"";
            if (!e.args.empty()) out << ",\"args\":" << e.args;
            out << '}';
        }
    }
    out << "\n]}";
}

void tracer::write_json_file(const std::string& path) const {
    // Render to memory, then temp+rename (crash-safe; see sinks.h).
    std::ostringstream out;
    write_json(out);
    out << '\n';
    write_file_atomic(path, out.str());
}

}  // namespace lsm::obs
