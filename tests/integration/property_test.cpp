// Randomized property tests over the sessionizer and the generators:
// structural invariants that must hold for ANY trace, exercised over a
// parameter grid of random workloads.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <unordered_map>

#include "characterize/session_builder.h"
#include "core/rng.h"
#include "core/trace.h"
#include "gismo/live_generator.h"

namespace lsm {
namespace {

trace random_trace(std::uint64_t seed, int records, int clients,
                   seconds_t span, seconds_t max_dur) {
    rng r(seed);
    trace t(span + max_dur);
    for (int i = 0; i < records; ++i) {
        log_record rec;
        rec.client = r.next_below(static_cast<std::uint64_t>(clients)) + 1;
        rec.start = static_cast<seconds_t>(
            r.next_below(static_cast<std::uint64_t>(span)));
        rec.duration = static_cast<seconds_t>(
            r.next_below(static_cast<std::uint64_t>(max_dur)));
        rec.object = static_cast<object_id>(r.next_below(2));
        t.add(rec);
    }
    t.sort_by_start();
    return t;
}

using session_params = std::tuple<std::uint64_t, seconds_t>;

class SessionInvariants
    : public ::testing::TestWithParam<session_params> {};

TEST_P(SessionInvariants, HoldOnRandomTraces) {
    const auto [seed, timeout] = GetParam();
    const trace t = random_trace(seed, 2000, 40, 500000, 2000);
    const auto ss = characterize::build_sessions(t, timeout);

    // 1. Every record is in exactly one session.
    std::size_t total = 0;
    for (const auto& s : ss.sessions) {
        total += s.num_transfers;
        ASSERT_EQ(s.transfer_starts.size(), s.num_transfers);
        ASSERT_EQ(s.transfer_ends.size(), s.num_transfers);
        ASSERT_EQ(s.transfer_objects.size(), s.num_transfers);
    }
    EXPECT_EQ(total, t.size());

    // 2. Session bounds contain their transfers; starts ascend.
    for (const auto& s : ss.sessions) {
        EXPECT_EQ(s.start, s.transfer_starts.front());
        seconds_t max_end = 0;
        for (std::size_t i = 0; i < s.num_transfers; ++i) {
            EXPECT_GE(s.transfer_starts[i], s.start);
            EXPECT_LE(s.transfer_ends[i], s.end);
            max_end = std::max(max_end, s.transfer_ends[i]);
            if (i > 0) {
                EXPECT_GE(s.transfer_starts[i], s.transfer_starts[i - 1]);
                // 3. Within a session no gap exceeds the timeout.
                seconds_t running_end = 0;
                for (std::size_t k = 0; k < i; ++k) {
                    running_end =
                        std::max(running_end, s.transfer_ends[k]);
                }
                EXPECT_LE(s.transfer_starts[i] - running_end, timeout);
            }
        }
        EXPECT_EQ(s.end, max_end);
    }

    // 4. Consecutive sessions of the same client are separated by more
    //    than the timeout.
    std::unordered_map<client_id, characterize::session> last;
    for (const auto& s : ss.sessions) {
        auto it = last.find(s.client);
        if (it != last.end()) {
            EXPECT_GT(s.start - it->second.end, timeout);
        }
        last[s.client] = s;
    }

    // 5. count_sessions agrees with materialization.
    EXPECT_EQ(characterize::count_sessions(t, timeout),
              ss.sessions.size());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SessionInvariants,
    ::testing::Combine(::testing::Values(1ULL, 2ULL, 3ULL),
                       ::testing::Values<seconds_t>(0, 60, 1500, 50000)));

class GeneratorScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(GeneratorScaleSweep, VolumeScalesAndShapesHold) {
    const double scale = GetParam();
    auto cfg = gismo::live_config::scaled(scale);
    cfg.window = 2 * seconds_per_day;
    const trace t = gismo::generate_live_workload(cfg, 99);
    // Expected sessions = mean rate * window; transfers ~ 1.66x.
    const double expected =
        cfg.arrivals.mean_rate() * static_cast<double>(cfg.window) * 1.66;
    EXPECT_NEAR(static_cast<double>(t.size()), expected, expected * 0.3);
    EXPECT_TRUE(t.is_sorted_by_start());
    for (const auto& r : t.records()) {
        EXPECT_LE(r.end(), t.window_length());
        EXPECT_GE(r.client, 1U);
        EXPECT_LE(r.client, cfg.num_clients);
    }
}

INSTANTIATE_TEST_SUITE_P(Scales, GeneratorScaleSweep,
                         ::testing::Values(0.01, 0.05, 0.1, 0.2));

}  // namespace
}  // namespace lsm
