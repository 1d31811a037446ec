#include "obs/trace_event.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "obs/json_min.h"
#include "obs/metrics.h"

namespace lsm::obs {
namespace {

std::string trace_json(const tracer& t) {
    std::ostringstream out;
    t.write_json(out);
    return out.str();
}

/// Structural validity every emitted trace must satisfy: parses as a
/// traceEvents document, per-thread timestamps are monotonic
/// non-decreasing, and every 'B' has a matching 'E'.
void expect_valid_trace(const json_value& doc) {
    const json_value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::map<double, double> last_ts;   // tid -> last ts seen
    std::map<double, int> open_slices;  // tid -> B-E depth
    for (const json_value& e : events->as_array()) {
        const std::string& ph = e.find("ph")->as_string();
        if (ph == "M") continue;
        const double tid = e.number_or("tid", -1.0);
        const double ts = e.find("ts")->as_number();
        const auto it = last_ts.find(tid);
        if (it != last_ts.end()) EXPECT_GE(ts, it->second);
        last_ts[tid] = ts;
        if (ph == "B") ++open_slices[tid];
        if (ph == "E") --open_slices[tid];
        EXPECT_GE(open_slices[tid], 0);
    }
    for (const auto& [tid, depth] : open_slices) {
        EXPECT_EQ(depth, 0) << "unbalanced slices on tid " << tid;
    }
}

TEST(TraceEvent, EmptyTracerEmitsValidDocument) {
    tracer t;
    const json_value doc = parse_json(trace_json(t));
    expect_valid_trace(doc);
}

TEST(TraceEvent, SlicesRoundTripWithNamesAndArgs) {
    tracer t;
    ASSERT_TRUE(t.begin_slice("outer", R"({"shard":3})"));
    ASSERT_TRUE(t.begin_slice("inner"));
    t.end_slice();
    t.end_slice();
    t.instant("tick");

    const json_value doc = parse_json(trace_json(t));
    expect_valid_trace(doc);
    std::vector<std::string> names;
    double shard_arg = -1.0;
    for (const json_value& e : doc.find("traceEvents")->as_array()) {
        const std::string& ph = e.find("ph")->as_string();
        if (ph != "B" && ph != "i") continue;
        names.push_back(e.find("name")->as_string());
        if (const json_value* args = e.find("args"); args != nullptr) {
            shard_arg = args->number_or("shard", -1.0);
        }
    }
    EXPECT_EQ(names, (std::vector<std::string>{"outer", "inner", "tick"}));
    EXPECT_EQ(shard_arg, 3.0);
}

TEST(TraceEvent, NamesNeedingEscapesSurviveTheRoundTrip) {
    tracer t;
    const std::string nasty = "a\"b\\c\nd\te";
    ASSERT_TRUE(t.begin_slice(nasty));
    t.end_slice();
    const json_value doc = parse_json(trace_json(t));
    expect_valid_trace(doc);
    bool found = false;
    for (const json_value& e : doc.find("traceEvents")->as_array()) {
        if (e.find("ph")->as_string() == "B") {
            EXPECT_EQ(e.find("name")->as_string(), nasty);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(TraceEvent, FullBufferDropsBeginsButKeepsEnds) {
    tracer t(/*capacity_per_thread=*/2);
    EXPECT_TRUE(t.begin_slice("a"));
    EXPECT_TRUE(t.begin_slice("b"));  // buffer now at capacity
    EXPECT_FALSE(t.begin_slice("c"));  // dropped
    // Both recorded begins still get their ends (exempt from the cap).
    t.end_slice();
    t.end_slice();
    EXPECT_EQ(t.dropped(), 1U);
    EXPECT_EQ(t.recorded(), 4U);
    expect_valid_trace(parse_json(trace_json(t)));
}

TEST(TraceEvent, ScopedSliceIsNullSafeAndPairsBE) {
    {
        scoped_slice null_slice(nullptr, "ignored");
        EXPECT_FALSE(null_slice.recording());
    }
    tracer t;
    {
        scoped_slice s(&t, "work");
        EXPECT_TRUE(s.recording());
    }
    EXPECT_EQ(t.recorded(), 2U);
    expect_valid_trace(parse_json(trace_json(t)));
}

TEST(TraceEvent, GlobalGuardInstallsAndRestores) {
    EXPECT_EQ(tracer::global(), nullptr);
    tracer outer_t;
    {
        global_tracer_guard outer(&outer_t);
        EXPECT_EQ(tracer::global(), &outer_t);
        tracer inner_t;
        {
            global_tracer_guard inner(&inner_t);
            EXPECT_EQ(tracer::global(), &inner_t);
        }
        EXPECT_EQ(tracer::global(), &outer_t);
    }
    EXPECT_EQ(tracer::global(), nullptr);
}

TEST(TraceEvent, DestroyingTheGlobalTracerClearsIt) {
    {
        tracer t;
        tracer::set_global(&t);
    }
    EXPECT_EQ(tracer::global(), nullptr);
}

TEST(TraceEvent, ScopedTimerEmitsSlicesEvenWithoutRegistry) {
    tracer t;
    global_tracer_guard guard(&t);
    {
        scoped_timer timer(nullptr, "phase");
    }
    EXPECT_EQ(t.recorded(), 2U);
    const json_value doc = parse_json(trace_json(t));
    expect_valid_trace(doc);
    bool found = false;
    for (const json_value& e : doc.find("traceEvents")->as_array()) {
        if (e.find("ph")->as_string() == "B") {
            EXPECT_EQ(e.find("name")->as_string(), "phase");
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(TraceEvent, PoolShardsEmitBalancedSlicesAcrossThreads) {
    tracer t;
    global_tracer_guard guard(&t);
    thread_pool pool(4);
    pool.run_shards(16, [](std::size_t) {
        volatile int sink = 0;
        for (int i = 0; i < 1000; ++i) sink = sink + i;
    });
    // 16 shard slices, B+E each; possibly spread over multiple tids.
    EXPECT_EQ(t.recorded(), 32U);
    expect_valid_trace(parse_json(trace_json(t)));
}

}  // namespace
}  // namespace lsm::obs
