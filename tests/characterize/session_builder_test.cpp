#include "characterize/session_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "characterize/session_spill.h"
#include "core/contracts.h"
#include "core/parallel.h"
#include "core/rng.h"

namespace lsm::characterize {
namespace {

log_record rec(client_id c, seconds_t start, seconds_t dur) {
    log_record r;
    r.client = c;
    r.start = start;
    r.duration = dur;
    return r;
}

TEST(SessionBuilder, SingleTransferIsOneSession) {
    trace t(1000);
    t.add(rec(1, 100, 50));
    const auto ss = build_sessions(t, 10);
    ASSERT_EQ(ss.sessions.size(), 1U);
    EXPECT_EQ(ss.sessions[0].client, 1U);
    EXPECT_EQ(ss.sessions[0].start, 100);
    EXPECT_EQ(ss.sessions[0].end, 150);
    EXPECT_EQ(ss.sessions[0].num_transfers, 1U);
    EXPECT_EQ(ss.sessions[0].on_time(), 50);
}

TEST(SessionBuilder, GapAtMostTimeoutMerges) {
    trace t(1000);
    t.add(rec(1, 0, 10));   // ends 10
    t.add(rec(1, 20, 10));  // gap 10 == timeout -> same session
    const auto ss = build_sessions(t, 10);
    ASSERT_EQ(ss.sessions.size(), 1U);
    EXPECT_EQ(ss.sessions[0].num_transfers, 2U);
    EXPECT_EQ(ss.sessions[0].on_time(), 30);
}

TEST(SessionBuilder, GapBeyondTimeoutSplits) {
    trace t(1000);
    t.add(rec(1, 0, 10));
    t.add(rec(1, 21, 10));  // gap 11 > timeout 10 -> new session
    const auto ss = build_sessions(t, 10);
    ASSERT_EQ(ss.sessions.size(), 2U);
    EXPECT_EQ(ss.sessions[0].end, 10);
    EXPECT_EQ(ss.sessions[1].start, 21);
}

TEST(SessionBuilder, DifferentClientsNeverMerge) {
    trace t(1000);
    t.add(rec(1, 0, 10));
    t.add(rec(2, 1, 10));
    const auto ss = build_sessions(t, 1000);
    EXPECT_EQ(ss.sessions.size(), 2U);
}

TEST(SessionBuilder, OverlappingTransfersExtendEnd) {
    trace t(1000);
    t.add(rec(1, 0, 100));  // ends 100
    t.add(rec(1, 10, 20));  // nested: ends 30, must not shrink session end
    t.add(rec(1, 150, 10));  // gap from 100 is 50 <= 60 -> same session
    const auto ss = build_sessions(t, 60);
    ASSERT_EQ(ss.sessions.size(), 1U);
    EXPECT_EQ(ss.sessions[0].end, 160);
    EXPECT_EQ(ss.sessions[0].num_transfers, 3U);
}

TEST(SessionBuilder, GapMeasuredFromLatestEnd) {
    trace t(1000);
    t.add(rec(1, 0, 100));   // ends 100
    t.add(rec(1, 10, 5));    // ends 15
    // Next starts at 140: gap from latest end (100) is 40 <= 50.
    t.add(rec(1, 140, 5));
    const auto ss = build_sessions(t, 50);
    EXPECT_EQ(ss.sessions.size(), 1U);
}

TEST(SessionBuilder, TransferStartsRecordedAscending) {
    trace t(1000);
    t.add(rec(1, 30, 5));
    t.add(rec(1, 0, 5));
    t.add(rec(1, 15, 5));
    const auto ss = build_sessions(t, 100);
    ASSERT_EQ(ss.sessions.size(), 1U);
    const auto& starts = ss.sessions[0].transfer_starts;
    ASSERT_EQ(starts.size(), 3U);
    EXPECT_EQ(starts[0], 0);
    EXPECT_EQ(starts[1], 15);
    EXPECT_EQ(starts[2], 30);
}

TEST(SessionBuilder, OffTimesOnlyBetweenSameClient) {
    trace t(100000);
    t.add(rec(1, 0, 10));
    t.add(rec(1, 5000, 10));  // gap 4990 > 1500 -> second session
    t.add(rec(2, 100, 10));
    const auto ss = build_sessions(t, 1500);
    const auto offs = ss.off_times();
    ASSERT_EQ(offs.size(), 1U);
    EXPECT_EQ(offs[0], 4990);
}

TEST(SessionBuilder, OffTimesExceedTimeout) {
    trace t(1000000);
    for (int i = 0; i < 20; ++i) {
        t.add(rec(1, i * 10000, 100));
    }
    const seconds_t timeout = 1500;
    const auto ss = build_sessions(t, timeout);
    for (const seconds_t off : ss.off_times()) {
        EXPECT_GT(off, timeout);
    }
}

TEST(SessionBuilder, ZeroTimeoutSplitsAnyGap) {
    trace t(1000);
    t.add(rec(1, 0, 10));
    t.add(rec(1, 10, 10));  // gap 0: same session even at timeout 0
    t.add(rec(1, 21, 10));  // gap 1 > 0
    const auto ss = build_sessions(t, 0);
    EXPECT_EQ(ss.sessions.size(), 2U);
}

TEST(SessionBuilder, TransferCountConserved) {
    trace t(100000);
    for (int c = 1; c <= 5; ++c) {
        for (int i = 0; i < 7; ++i) {
            t.add(rec(static_cast<client_id>(c), c * 37 + i * 997, 13));
        }
    }
    const auto ss = build_sessions(t, 300);
    std::size_t total = 0;
    for (const auto& s : ss.sessions) {
        total += s.num_transfers;
        EXPECT_EQ(s.num_transfers, s.transfer_starts.size());
    }
    EXPECT_EQ(total, t.size());
}

TEST(SessionBuilder, EmptyTrace) {
    trace t(100);
    EXPECT_EQ(count_sessions(t, 10), 0U);
    const auto ss = build_sessions(t, 10);
    EXPECT_TRUE(ss.sessions.empty());
}

TEST(CountSessions, MatchesBuildSessions) {
    trace t(1000000);
    // Pseudo-random but deterministic pattern.
    std::uint64_t s = 99;
    for (int i = 0; i < 500; ++i) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto c = static_cast<client_id>(1 + (s >> 60));
        const auto start = static_cast<seconds_t>((s >> 20) % 900000);
        t.add(rec(c, start, static_cast<seconds_t>(s % 500)));
    }
    for (seconds_t timeout : {0, 100, 1500, 100000}) {
        EXPECT_EQ(count_sessions(t, timeout),
                  build_sessions(t, timeout).sessions.size())
            << "timeout=" << timeout;
    }
}

TEST(SessionCountSweep, MonotoneNonIncreasing) {
    trace t(1000000);
    std::uint64_t s = 7;
    for (int i = 0; i < 300; ++i) {
        s = s * 2862933555777941757ULL + 3037000493ULL;
        t.add(rec(1 + (s % 3), static_cast<seconds_t>(s % 500000),
                  static_cast<seconds_t>(s % 200)));
    }
    const std::vector<seconds_t> timeouts = {0, 10, 100, 1000, 10000,
                                             100000};
    const auto counts = session_count_sweep(t, timeouts);
    ASSERT_EQ(counts.size(), timeouts.size());
    for (std::size_t i = 1; i < counts.size(); ++i) {
        EXPECT_LE(counts[i], counts[i - 1]);
    }
    // Sweep must agree with the one-off counter.
    for (std::size_t i = 0; i < timeouts.size(); ++i) {
        EXPECT_EQ(counts[i], count_sessions(t, timeouts[i]));
    }
}

TEST(SessionBuilder, OrderByStartSortsGlobally) {
    trace t(100000);
    t.add(rec(5, 9000, 10));
    t.add(rec(1, 100, 10));
    t.add(rec(3, 4000, 10));
    const auto ss = build_sessions(t, 10);
    const auto order = ss.order_by_start();
    ASSERT_EQ(order.size(), 3U);
    EXPECT_LT(ss.sessions[order[0]].start, ss.sessions[order[1]].start);
    EXPECT_LT(ss.sessions[order[1]].start, ss.sessions[order[2]].start);
}

TEST(SessionBuilder, RejectsNegativeTimeout) {
    trace t(100);
    t.add(rec(1, 0, 1));
    EXPECT_THROW(build_sessions(t, -1), lsm::contract_violation);
    EXPECT_THROW(count_sessions(t, -1), lsm::contract_violation);
}

/// The naive per-timeout walk the sweep's gap-list shortcut must equal.
std::vector<std::uint64_t> naive_sweep(
    const trace& t, const std::vector<seconds_t>& timeouts) {
    std::vector<std::uint64_t> counts;
    for (seconds_t timeout : timeouts) {
        counts.push_back(count_sessions(t, timeout));
    }
    return counts;
}

TEST(SessionCountSweep, GapListEqualsNaiveLoopOnOverlappingTimelines) {
    // Heavily overlapping transfers: a later transfer can start before an
    // earlier one ends, so gaps go negative and the running-end maximum
    // matters.
    trace t(1000000);
    std::uint64_t s = 31;
    for (int i = 0; i < 800; ++i) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        t.add(rec(1 + (s % 7), static_cast<seconds_t>(s % 100000),
                  static_cast<seconds_t>(s % 30000)));
    }
    const std::vector<seconds_t> timeouts = {0,   1,    10,   100,  500,
                                             1500, 5000, 20000, 1000000};
    EXPECT_EQ(session_count_sweep(t, timeouts), naive_sweep(t, timeouts));
}

TEST(SessionCountSweep, GapListEqualsNaiveLoopOnZeroDurations) {
    trace t(1000000);
    std::uint64_t s = 77;
    for (int i = 0; i < 400; ++i) {
        s = s * 2862933555777941757ULL + 3037000493ULL;
        // All durations zero: every record is an instant.
        t.add(rec(1 + (s % 5), static_cast<seconds_t>(s % 50000), 0));
    }
    const std::vector<seconds_t> timeouts = {0, 5, 50, 500, 5000, 50000};
    EXPECT_EQ(session_count_sweep(t, timeouts), naive_sweep(t, timeouts));
}

TEST(SessionCountSweep, NegativeDurationsFallBackToNaiveWalk) {
    // Negative durations break the gap-list invariant (a session reset
    // can lower the running end), so the sweep must take the per-timeout
    // walk; either way it has to agree with count_sessions.
    trace t(1000000);
    t.add(rec(1, 100, -50));
    t.add(rec(1, 120, 10));
    t.add(rec(1, 500, -200));
    t.add(rec(1, 550, 5));
    t.add(rec(2, 90, -10));
    t.add(rec(2, 300, 20));
    const std::vector<seconds_t> timeouts = {0, 10, 100, 400, 1000};
    EXPECT_EQ(session_count_sweep(t, timeouts), naive_sweep(t, timeouts));
}

TEST(SessionCountSweep, SingleClientSingleRecord) {
    trace t(1000);
    t.add(rec(9, 10, 5));
    const std::vector<seconds_t> timeouts = {0, 100};
    EXPECT_EQ(session_count_sweep(t, timeouts),
              (std::vector<std::uint64_t>{1, 1}));
}

// --- Differential tests against a test-local oracle --------------------

/// A session as the oracle builds it, with owning transfer lists.
struct oracle_session {
    client_id client = 0;
    seconds_t start = 0;
    seconds_t end = 0;
    std::vector<seconds_t> starts;
    std::vector<seconds_t> ends;
    std::vector<object_id> objects;
};

/// The sessionizer's contract, written the obvious way: a stable sort by
/// (client, start, duration), then the gap walk.
std::vector<oracle_session> oracle(const trace& t, seconds_t timeout) {
    std::vector<log_record> recs = t.records();
    std::stable_sort(recs.begin(), recs.end(),
                     [](const log_record& a, const log_record& b) {
                         return std::tuple(a.client, a.start, a.duration) <
                                std::tuple(b.client, b.start, b.duration);
                     });
    std::vector<oracle_session> out;
    for (const log_record& r : recs) {
        if (out.empty() || r.client != out.back().client ||
            r.start - out.back().end > timeout) {
            out.push_back({r.client, r.start, r.end(), {}, {}, {}});
        } else {
            out.back().end = std::max(out.back().end, r.end());
        }
        out.back().starts.push_back(r.start);
        out.back().ends.push_back(r.end());
        out.back().objects.push_back(r.object);
    }
    return out;
}

void expect_matches_oracle(const session_set& got,
                           const std::vector<oracle_session>& want,
                           const std::string& label) {
    ASSERT_EQ(got.sessions.size(), want.size()) << label;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const session s = got.sessions[i];
        const oracle_session& w = want[i];
        ASSERT_EQ(s.client, w.client) << label << " session " << i;
        ASSERT_EQ(s.start, w.start) << label << " session " << i;
        ASSERT_EQ(s.end, w.end) << label << " session " << i;
        ASSERT_EQ(s.num_transfers, w.starts.size())
            << label << " session " << i;
        ASSERT_TRUE(std::ranges::equal(s.transfer_starts, w.starts))
            << label << " session " << i;
        ASSERT_TRUE(std::ranges::equal(s.transfer_ends, w.ends))
            << label << " session " << i;
        ASSERT_TRUE(std::ranges::equal(s.transfer_objects, w.objects))
            << label << " session " << i;
    }
}

std::string sessions_csv(const session_set& s) {
    std::ostringstream out;
    write_sessions_csv(s, out);
    return std::move(out).str();
}

/// Serial, pooled at every pool size, and spilled at small budgets: all
/// must equal the oracle field for field and write the same CSV bytes.
void expect_every_path_matches_oracle(const trace& t, seconds_t timeout) {
    const auto want = oracle(t, timeout);
    const session_set serial = build_sessions(t, timeout);
    expect_matches_oracle(serial, want, "serial");
    EXPECT_EQ(count_sessions(t, timeout), want.size());
    const std::string csv = sessions_csv(serial);
    for (unsigned threads : {1U, 2U, 3U, 4U, 8U}) {
        thread_pool pool(threads);
        const std::string label = "threads=" + std::to_string(threads);
        const session_set pooled = build_sessions(t, timeout, pool);
        expect_matches_oracle(pooled, want, label);
        EXPECT_EQ(sessions_csv(pooled), csv) << label;
        for (std::size_t budget : {t.size() / 4 + 1, t.size() / 2 + 1}) {
            spill_options opts;
            opts.timeout = timeout;
            opts.max_resident_records = budget;
            opts.spill_dir = ::testing::TempDir();
            const session_set spilled = build_sessions_spill(t, opts, pool);
            const std::string spill_label =
                label + " budget=" + std::to_string(budget);
            expect_matches_oracle(spilled, want, spill_label);
            EXPECT_EQ(sessions_csv(spilled), csv) << spill_label;
        }
    }
}

TEST(SessionBuilderDifferential, RandomTrace) {
    trace t(1000000);
    rng r(55);
    for (int i = 0; i < 1200; ++i) {
        t.add(rec(1 + r.next_u64() % 40,
                  static_cast<seconds_t>(r.next_u64() % 400000),
                  static_cast<seconds_t>(r.next_u64() % 2000)));
    }
    expect_every_path_matches_oracle(t, 1500);
}

TEST(SessionBuilderDifferential, OneClientHoldsMostRecords) {
    // A range shard cannot split a client, so one shard carries more than
    // half the trace and others may be empty.
    trace t(1000000);
    rng r(56);
    for (int i = 0; i < 1500; ++i) {
        const client_id c = i % 3 != 0 ? 7 : 1 + r.next_u64() % 500;
        t.add(rec(c, static_cast<seconds_t>(r.next_u64() % 200000),
                  static_cast<seconds_t>(r.next_u64() % 600)));
    }
    expect_every_path_matches_oracle(t, 1500);
}

TEST(SessionBuilderDifferential, ClientIdsSpanTheWholeU64Range) {
    trace t(1000000);
    rng r(57);
    std::vector<client_id> ids = {0, ~client_id{0}, client_id{1} << 63};
    for (int i = 0; i < 60; ++i) ids.push_back(r.next_u64());
    for (int i = 0; i < 1000; ++i) {
        t.add(rec(ids[r.next_u64() % ids.size()],
                  static_cast<seconds_t>(r.next_u64() % 100000),
                  static_cast<seconds_t>(r.next_u64() % 900)));
    }
    expect_every_path_matches_oracle(t, 1500);
}

TEST(SessionBuilderDifferential, EveryRecordItsOwnClient) {
    trace t(1000000);
    rng r(58);
    for (std::uint64_t i = 0; i < 800; ++i) {
        t.add(rec(i * 0x9e3779b97f4a7c15ULL,
                  static_cast<seconds_t>(r.next_u64() % 100000),
                  static_cast<seconds_t>(r.next_u64() % 900)));
    }
    expect_every_path_matches_oracle(t, 1500);
}

TEST(SessionBuilderDifferential, ExactTiesKeepRecordOrder) {
    // Equal (client, start, duration) with distinct objects: only record
    // order separates them.
    trace t(1000000);
    rng r(59);
    for (int i = 0; i < 900; ++i) {
        log_record x = rec(1 + r.next_u64() % 6,
                           static_cast<seconds_t>(r.next_u64() % 4) * 5000,
                           static_cast<seconds_t>(r.next_u64() % 2) * 10);
        x.object = static_cast<object_id>(i);
        t.add(x);
    }
    expect_every_path_matches_oracle(t, 1500);
}

TEST(SessionBuilderDifferential, ZeroLengthTransfers) {
    trace t(1000000);
    rng r(60);
    for (int i = 0; i < 900; ++i) {
        log_record x = rec(1 + r.next_u64() % 30,
                           static_cast<seconds_t>(r.next_u64() % 50000), 0);
        x.object = static_cast<object_id>(r.next_u64() % 5);
        t.add(x);
    }
    expect_every_path_matches_oracle(t, 1500);
}

TEST(SessionBuilderDifferential, EmptyTrace) {
    const trace t(1000);
    expect_every_path_matches_oracle(t, 1500);
    thread_pool pool(4);
    EXPECT_TRUE(build_sessions(t, 1500, pool).sessions.empty());
}

TEST(SessionBuilderDifferential, WideTimesKeepTiesInRecordOrder) {
    // Starts 5e9 s apart: a window-0 trace can hold them. Exact ties
    // must still come out in record order, whatever the pool size. The
    // second round adds durations of 2^40 s, so start and duration no
    // longer pack into one sort word and the wide path runs.
    for (seconds_t long_duration : {seconds_t{5}, seconds_t{1} << 40}) {
        trace t(0);
        for (int i = 0; i < 1600; ++i) {
            log_record x =
                rec(1 + i % 8, (i / 8) % 2 == 0 ? 10 : 5000000000LL,
                    i % 16 == 15 ? long_duration : 5);
            x.object = static_cast<object_id>(i);
            t.add(x);
        }
        thread_pool pool(4);
        const auto want = oracle(t, 1500);
        expect_matches_oracle(build_sessions(t, 1500), want, "serial");
        expect_matches_oracle(build_sessions(t, 1500, pool), want, "pooled");
        expect_every_path_matches_oracle(t, 1500);
    }
}

TEST(SessionBuilderDifferential, NegativeDurations) {
    trace t(1000000);
    rng r(61);
    for (int i = 0; i < 600; ++i) {
        t.add(rec(1 + r.next_u64() % 10,
                  static_cast<seconds_t>(r.next_u64() % 40000),
                  static_cast<seconds_t>(r.next_u64() % 4000) - 2000));
    }
    expect_every_path_matches_oracle(t, 1500);
}

}  // namespace
}  // namespace lsm::characterize
