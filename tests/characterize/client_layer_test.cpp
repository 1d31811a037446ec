#include "characterize/client_layer.h"

#include <gtest/gtest.h>

#include <map>

#include "characterize/hierarchical.h"
#include "characterize/session_spill.h"
#include "core/contracts.h"
#include "core/rng.h"
#include "gismo/live_generator.h"

namespace lsm::characterize {
namespace {

log_record rec(client_id c, seconds_t start, seconds_t dur) {
    log_record r;
    r.client = c;
    r.start = start;
    r.duration = dur;
    r.asn = 1000 + static_cast<as_number>(c % 2);
    r.ip = static_cast<ipv4_addr>(c);
    r.country = make_country(c % 2 == 0 ? "BR" : "US");
    return r;
}

trace small_trace() {
    trace t(seconds_per_day);
    t.add(rec(1, 0, 100));
    t.add(rec(1, 50, 100));
    t.add(rec(2, 2000, 500));
    t.add(rec(3, 2100, 50));
    t.add(rec(1, 50000, 100));
    t.sort_by_start();
    return t;
}

client_layer_report small_report() {
    const trace t = small_trace();
    const auto ss = build_sessions(t, 1500);
    return analyze_client_layer(t, ss);
}

TEST(ClientLayer, TotalsMatch) {
    const auto rep = small_report();
    EXPECT_EQ(rep.total_transfers, 5U);
    EXPECT_EQ(rep.total_sessions, 4U);  // client 1 has two sessions
    EXPECT_EQ(rep.distinct_clients, 3U);
}

TEST(ClientLayer, InterarrivalsSkipSameClientPairs) {
    const auto rep = small_report();
    // Session starts: 0 (c1), 2000 (c2), 2100 (c3), 50000 (c1).
    // Consecutive different-client pairs: (0,2000), (2000,2100),
    // (2100,50000). All pairs here are different clients -> 3 gaps,
    // with the +1 display convention.
    ASSERT_EQ(rep.client_interarrivals.size(), 3U);
    EXPECT_DOUBLE_EQ(rep.client_interarrivals[0], 2001.0);
    EXPECT_DOUBLE_EQ(rep.client_interarrivals[1], 101.0);
    EXPECT_DOUBLE_EQ(rep.client_interarrivals[2], 47901.0);
}

TEST(ClientLayer, ConcurrencySeriesCountsActiveSessions) {
    const trace t = small_trace();
    const auto ss = build_sessions(t, 1500);
    client_layer_config cfg;
    cfg.concurrency_sample_step = 60;
    cfg.temporal_bin = 900;
    const auto rep = analyze_client_layer(t, ss, cfg);
    // At t=2100 both client 2's and client 3's sessions are active.
    EXPECT_DOUBLE_EQ(rep.concurrency_series[2100 / 60], 2.0);
    // At t=0 a session is active but sampling starts at bin boundary 0.
    EXPECT_GE(rep.concurrency_series[0], 1.0);
}

TEST(ClientLayer, InterestProfilesSortedAndNormalized) {
    const auto rep = small_report();
    ASSERT_EQ(rep.transfer_interest_profile.size(), 3U);
    double sum = 0.0;
    for (std::size_t i = 0; i < rep.transfer_interest_profile.size(); ++i) {
        sum += rep.transfer_interest_profile[i];
        if (i > 0) {
            EXPECT_LE(rep.transfer_interest_profile[i],
                      rep.transfer_interest_profile[i - 1]);
        }
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    // Client 1 has 3 of 5 transfers.
    EXPECT_DOUBLE_EQ(rep.transfer_interest_profile[0], 0.6);
}

TEST(ClientLayer, AsProfilesAggregateTransfersAndIps) {
    const auto rep = small_report();
    ASSERT_EQ(rep.as_by_transfers.size(), 2U);
    std::uint64_t total = 0;
    for (const auto& a : rep.as_by_transfers) total += a.transfers;
    EXPECT_EQ(total, 5U);
    EXPECT_GE(rep.as_by_transfers[0].transfers,
              rep.as_by_transfers[1].transfers);
}

TEST(ClientLayer, CountryProfiles) {
    const auto rep = small_report();
    ASSERT_EQ(rep.countries.size(), 2U);
    std::uint64_t total = 0;
    for (const auto& c : rep.countries) total += c.transfers;
    EXPECT_EQ(total, 5U);
}

TEST(ClientLayer, FoldsHaveExpectedSizes) {
    const auto rep = small_report();
    EXPECT_EQ(rep.concurrency_daily_fold.size(),
              static_cast<std::size_t>(seconds_per_day / 900));
    EXPECT_EQ(rep.concurrency_weekly_fold.size(),
              static_cast<std::size_t>(seconds_per_week / 900));
}

TEST(ClientLayer, AcfStartsAtOne) {
    const auto rep = small_report();
    ASSERT_FALSE(rep.concurrency_acf.empty());
    EXPECT_DOUBLE_EQ(rep.concurrency_acf[0], 1.0);
}

TEST(ClientLayer, ZipfInterestEmergesFromGeneratedWorkload) {
    auto cfg = gismo::live_config::scaled(0.01);
    cfg.window = 7 * seconds_per_day;
    const trace t = gismo::generate_live_workload(cfg, 3);
    const auto ss = build_sessions(t, 1500);
    client_layer_config ccfg;
    ccfg.acf_max_lag = 100;  // keep the test fast
    const auto rep = analyze_client_layer(t, ss, ccfg);
    // The generator uses Zipf(0.4704); the refit exponent should be in a
    // sane band around it.
    EXPECT_GT(rep.session_interest_fit.alpha, 0.2);
    EXPECT_LT(rep.session_interest_fit.alpha, 0.9);
    // Transfers-per-client is at least as skewed as sessions-per-client.
    EXPECT_GE(rep.transfer_interest_fit.alpha,
              rep.session_interest_fit.alpha);
}

TEST(ClientLayer, RejectsMisalignedBins) {
    const trace t = small_trace();
    const auto ss = build_sessions(t, 1500);
    client_layer_config cfg;
    cfg.concurrency_sample_step = 7;
    cfg.temporal_bin = 900;  // not a multiple of 7
    EXPECT_THROW(analyze_client_layer(t, ss, cfg),
                 lsm::contract_violation);
}

// --- Per-client counts come from the session columns; a record-based
// count is the oracle.

struct record_counts {
    std::vector<double> transfer_profile;
    std::uint64_t distinct_clients = 0;
};

record_counts count_by_records(const trace& t) {
    std::map<client_id, std::uint64_t> per_client;
    for (const log_record& r : t.records()) ++per_client[r.client];
    std::vector<std::uint64_t> counts;
    for (const auto& [client, n] : per_client) counts.push_back(n);
    return {stats::rank_frequency_profile(counts), per_client.size()};
}

void expect_counts_match_records(const trace& t,
                                 const client_layer_report& rep) {
    const record_counts want = count_by_records(t);
    EXPECT_EQ(rep.distinct_clients, want.distinct_clients);
    EXPECT_EQ(rep.transfer_interest_profile, want.transfer_profile);
}

/// Random records over a day: a few heavy clients, many light ones. Unless
/// `clean`, some records start or run past the window, which sanitize()
/// would drop.
trace random_trace(std::uint64_t seed, std::size_t n, bool clean) {
    rng r(seed);
    trace t(seconds_per_day);
    for (std::size_t i = 0; i < n; ++i) {
        const client_id c = r.next_bool(0.3)
                                ? static_cast<client_id>(r.next_below(5))
                                : static_cast<client_id>(r.next_below(4000));
        auto start = static_cast<seconds_t>(r.next_below(seconds_per_day));
        const auto dur = static_cast<seconds_t>(r.next_below(3000));
        if (!clean && r.next_bool(0.05)) start += seconds_per_day;
        t.add(rec(c, start, dur));
    }
    return t;
}

client_layer_config fast_config() {
    client_layer_config cfg;
    cfg.acf_max_lag = 50;
    return cfg;
}

TEST(ClientLayer, PerClientCountsMatchRecordsOnRandomTraces) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        SCOPED_TRACE(seed);
        const trace t = random_trace(seed, 20000, true);
        thread_pool pool(3);
        for (seconds_t timeout : {0, 1500, 100000}) {
            const auto ss = build_sessions(t, timeout, pool);
            expect_counts_match_records(
                t, analyze_client_layer(t, ss, fast_config()));
        }
    }
}

TEST(ClientLayer, PerClientCountsMatchRecordsUnsanitized) {
    trace t = random_trace(4, 20000, false);
    const trace original = t;
    hierarchical_config cfg;
    cfg.sanitize_first = false;
    cfg.threads = 2;
    cfg.client = fast_config();
    const auto rep = characterize_hierarchically(t, cfg);
    ASSERT_EQ(t.size(), original.size());
    trace sanitized = original;
    EXPECT_GT(sanitize(sanitized).dropped_out_of_window, 0U);
    expect_counts_match_records(original, rep.client);
}

TEST(ClientLayer, PerClientCountsMatchRecordsThroughSpill) {
    const trace t = random_trace(5, 20000, true);
    thread_pool pool(2);
    spill_options opts;
    opts.max_resident_records = t.size() / 4 + 1;
    opts.spill_dir = ::testing::TempDir();
    const auto ss = build_sessions_spill(t, opts, pool);
    expect_counts_match_records(t, analyze_client_layer(t, ss, fast_config()));
}

TEST(ClientLayer, RejectsSessionsOfAnotherTrace) {
    const trace t = random_trace(6, 2000, true);
    const trace other = random_trace(7, 1999, true);
    const auto ss = build_sessions(other, 1500);
    EXPECT_THROW(analyze_client_layer(t, ss, fast_config()),
                 lsm::contract_violation);
}

}  // namespace
}  // namespace lsm::characterize
