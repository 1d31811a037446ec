#include "characterize/hierarchical.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>

#include "characterize/report_json.h"
#include "core/contracts.h"
#include "gismo/live_generator.h"
#include "obs/metrics.h"
#include "world/world_sim.h"

namespace lsm::characterize {
namespace {

// Bitwise equality, so a NaN or a last-bit drift in a fold shows.
void expect_same(std::span<const double> got, std::span<const double> want,
                 const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    if (got.empty()) return;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)),
              0)
        << what;
}

void expect_same(double got, double want, const char* what) {
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << what << ": " << got << " vs " << want;
}

#define EXPECT_SAME(field) expect_same(got.field, want.field, #field)

void expect_same_client(const client_layer_report& got,
                        const client_layer_report& want) {
    EXPECT_SAME(concurrency_series);
    EXPECT_SAME(concurrency_binned);
    EXPECT_SAME(concurrency_weekly_fold);
    EXPECT_SAME(concurrency_daily_fold);
    EXPECT_SAME(concurrency_acf);
    EXPECT_SAME(client_interarrivals);
    EXPECT_SAME(transfer_interest_profile);
    EXPECT_SAME(transfer_interest_fit.alpha);
    EXPECT_SAME(transfer_interest_fit.c);
    EXPECT_SAME(transfer_interest_fit.r_squared);
    EXPECT_SAME(session_interest_profile);
    EXPECT_SAME(session_interest_fit.alpha);
    EXPECT_SAME(session_interest_fit.c);
    EXPECT_SAME(session_interest_fit.r_squared);
    ASSERT_EQ(got.as_by_transfers.size(), want.as_by_transfers.size());
    for (std::size_t i = 0; i < got.as_by_transfers.size(); ++i) {
        EXPECT_EQ(got.as_by_transfers[i].asn, want.as_by_transfers[i].asn);
        EXPECT_EQ(got.as_by_transfers[i].transfers,
                  want.as_by_transfers[i].transfers);
        EXPECT_EQ(got.as_by_transfers[i].distinct_ips,
                  want.as_by_transfers[i].distinct_ips);
    }
    ASSERT_EQ(got.countries.size(), want.countries.size());
    for (std::size_t i = 0; i < got.countries.size(); ++i) {
        EXPECT_EQ(got.countries[i].country, want.countries[i].country);
        EXPECT_EQ(got.countries[i].transfers, want.countries[i].transfers);
    }
    EXPECT_EQ(got.total_transfers, want.total_transfers);
    EXPECT_EQ(got.total_sessions, want.total_sessions);
    EXPECT_EQ(got.distinct_clients, want.distinct_clients);
}

void expect_same_session(const session_layer_report& got,
                         const session_layer_report& want) {
    EXPECT_SAME(on_times);
    EXPECT_SAME(on_fit.mu);
    EXPECT_SAME(on_fit.sigma);
    EXPECT_SAME(on_fit.ks);
    EXPECT_SAME(off_times);
    EXPECT_SAME(off_fit.mean);
    EXPECT_SAME(off_fit.ks);
    EXPECT_SAME(transfers_per_session);
    EXPECT_SAME(transfers_per_session_zipf.values);
    EXPECT_SAME(transfers_per_session_zipf.frequencies);
    EXPECT_SAME(transfers_per_session_zipf.fit.alpha);
    EXPECT_SAME(transfers_per_session_zipf.fit.c);
    EXPECT_SAME(transfers_per_session_zipf.fit.r_squared);
    EXPECT_SAME(intra_session_interarrivals);
    EXPECT_SAME(intra_fit.mu);
    EXPECT_SAME(intra_fit.sigma);
    EXPECT_SAME(intra_fit.ks);
    EXPECT_SAME(transfer_off_times);
    EXPECT_SAME(overlap_fraction);
    EXPECT_SAME(on_time_by_hour);
    EXPECT_SAME(on_hour_max_over_mean);
}

void expect_same_transfer(const transfer_layer_report& got,
                          const transfer_layer_report& want) {
    EXPECT_SAME(concurrency_binned);
    EXPECT_SAME(concurrency_weekly_fold);
    EXPECT_SAME(concurrency_daily_fold);
    EXPECT_SAME(concurrency_marginal);
    EXPECT_SAME(interarrivals);
    EXPECT_SAME(fast_regime.alpha);
    EXPECT_SAME(fast_regime.r_squared);
    EXPECT_EQ(got.fast_regime.points, want.fast_regime.points);
    EXPECT_SAME(slow_regime.alpha);
    EXPECT_SAME(slow_regime.r_squared);
    EXPECT_EQ(got.slow_regime.points, want.slow_regime.points);
    EXPECT_SAME(interarrival_binned);
    EXPECT_SAME(interarrival_weekly_fold);
    EXPECT_SAME(interarrival_daily_fold);
    EXPECT_SAME(lengths);
    EXPECT_SAME(length_fit.mu);
    EXPECT_SAME(length_fit.sigma);
    EXPECT_SAME(length_fit.ks);
    EXPECT_SAME(bandwidths_bps);
    EXPECT_SAME(congestion_bound_fraction);
}

#undef EXPECT_SAME

// The facade runs every layer part as one flat task list on its pool;
// at any pool size, and on the spill path, its reports must equal the
// one-call layer entry points field by field.
TEST(Hierarchical, FlatLayerStageMatchesOneCallLayersAtEveryPoolSize) {
    auto gen = gismo::live_config::scaled(0.01);
    gen.window = 3 * seconds_per_day;
    const trace generated = gismo::generate_live_workload(gen, 11);
    ASSERT_GT(generated.size(), 1000U);

    hierarchical_config base;
    base.client.acf_max_lag = 300;
    trace sanitized = generated;
    sanitize(sanitized);
    const auto sessions = build_sessions(sanitized, base.session_timeout);
    const auto cl = analyze_client_layer(sanitized, sessions, base.client);
    const auto sl = analyze_session_layer(sessions, base.session);
    const auto tl = analyze_transfer_layer(sanitized, base.transfer);
    ASSERT_FALSE(cl.concurrency_acf.empty());

    struct run {
        unsigned threads;
        std::size_t max_resident;
    };
    for (const run r : {run{1, 0}, run{2, 0}, run{3, 0}, run{4, 0},
                        run{8, 0}, run{4, 2000}}) {
        SCOPED_TRACE("threads=" + std::to_string(r.threads) +
                     " max_resident_records=" +
                     std::to_string(r.max_resident));
        hierarchical_config cfg = base;
        cfg.threads = r.threads;
        cfg.max_resident_records = r.max_resident;
        cfg.spill_dir = ::testing::TempDir();
        trace t = generated;
        const auto rep = characterize_hierarchically(t, cfg);
        expect_same_client(rep.client, cl);
        expect_same_session(rep.session, sl);
        expect_same_transfer(rep.transfer, tl);
    }
}

TEST(Hierarchical, EveryLayerPartRecordsOneSpan) {
    auto gen = gismo::live_config::scaled(0.005);
    gen.window = seconds_per_day;
    trace t = gismo::generate_live_workload(gen, 13);
    obs::registry reg;
    hierarchical_config cfg;
    cfg.threads = 4;
    cfg.client.acf_max_lag = 100;
    cfg.metrics = &reg;
    characterize_hierarchically(t, cfg);

    const std::pair<const char*, std::vector<const char*>> layers[] = {
        {"client", {"concurrency", "interarrivals", "interest", "diversity"}},
        {"session", {"all"}},
        {"transfer",
         {"concurrency", "interarrivals", "lengths", "bandwidth"}}};
    for (const auto& [layer, parts] : layers) {
        const std::string path = std::string("characterize/layers/") + layer;
        const obs::span_node& node = reg.span_at(path);
        // The layer span records once: the summed busy time of its parts.
        EXPECT_EQ(node.count(), 1U) << path;
        std::uint64_t parts_ns = 0;
        for (const char* part : parts) {
            const obs::span_node& p = reg.span_at(path + "/" + part);
            EXPECT_EQ(p.count(), 1U) << path << "/" << part;
            parts_ns += p.total_ns();
        }
        EXPECT_EQ(node.children().size(), parts.size()) << path;
        EXPECT_GE(node.total_ns(), parts_ns) << path;
    }
}

TEST(Hierarchical, MatchesManualPipeline) {
    auto cfg = gismo::live_config::scaled(0.005);
    cfg.window = 2 * seconds_per_day;
    trace t1 = gismo::generate_live_workload(cfg, 7);
    trace t2 = t1;

    hierarchical_config hcfg;
    hcfg.client.acf_max_lag = 100;
    const auto rep = characterize_hierarchically(t1, hcfg);

    sanitize(t2);
    const auto sessions = build_sessions(t2, hcfg.session_timeout);
    const auto sl = analyze_session_layer(sessions);
    const auto tl = analyze_transfer_layer(t2);

    EXPECT_EQ(rep.sessions.sessions.size(), sessions.sessions.size());
    EXPECT_DOUBLE_EQ(rep.session.on_fit.mu, sl.on_fit.mu);
    EXPECT_DOUBLE_EQ(rep.transfer.length_fit.mu, tl.length_fit.mu);
    EXPECT_EQ(rep.summary.num_transfers, t2.size());
}

TEST(Hierarchical, SanitizationReported) {
    world::world_config wcfg = world::world_config::scaled(0.01);
    wcfg.window = 2 * seconds_per_day;
    wcfg.target_sessions = 3000.0;
    wcfg.corrupt_fraction = 0.01;
    auto world = world::simulate_world(wcfg, 5);
    hierarchical_config hcfg;
    hcfg.client.acf_max_lag = 100;
    const auto rep = characterize_hierarchically(world.tr, hcfg);
    EXPECT_EQ(rep.sanitization.dropped_out_of_window,
              world.truth.corrupted_records);
    EXPECT_EQ(rep.sanitization.kept, world.tr.size());
}

TEST(Hierarchical, SkipSanitizeOption) {
    auto cfg = gismo::live_config::scaled(0.005);
    cfg.window = seconds_per_day;
    trace t = gismo::generate_live_workload(cfg, 9);
    const std::size_t before = t.size();
    hierarchical_config hcfg;
    hcfg.sanitize_first = false;
    hcfg.client.acf_max_lag = 100;
    const auto rep = characterize_hierarchically(t, hcfg);
    EXPECT_EQ(rep.sanitization.kept, before);
    EXPECT_EQ(rep.sanitization.dropped_out_of_window, 0U);
}

TEST(Hierarchical, EmptyAfterSanitizeThrowsDedicatedError) {
    trace t(100);
    log_record spans_past;
    spans_past.start = 200;  // outside window
    spans_past.duration = 1;
    t.add(spans_past);
    log_record negative;
    negative.start = 5;
    negative.duration = -3;
    t.add(negative);
    try {
        characterize_hierarchically(t);
        FAIL() << "expected sanitization_emptied_trace";
    } catch (const sanitization_emptied_trace& e) {
        EXPECT_EQ(e.report.kept, 0U);
        EXPECT_EQ(e.report.dropped_out_of_window, 1U);
        EXPECT_EQ(e.report.dropped_negative, 1U);
    }
}

TEST(Hierarchical, EmptyInputViolatesPrecondition) {
    // The precondition fires before sanitization ever runs.
    trace t(100);
    EXPECT_THROW(characterize_hierarchically(t), lsm::contract_violation);
}

TEST(Hierarchical, SurvivorsAfterSanitizeCharacterizeFine) {
    // Regression guard: one good record next to garbage must not trip the
    // old post-sanitize contract check path.
    trace t(10000);
    log_record bad;
    bad.start = 50000;
    bad.duration = 1;
    t.add(bad);
    for (int i = 0; i < 6; ++i) {
        log_record good;
        good.client = static_cast<client_id>(1 + i % 3);
        good.start = 10 + 900 * i;
        good.duration = 30 + 10 * i;
        good.avg_bandwidth_bps = 56000.0;
        t.add(good);
    }
    hierarchical_config hcfg;
    hcfg.client.acf_max_lag = 5;
    const auto rep = characterize_hierarchically(t, hcfg);
    EXPECT_EQ(rep.sanitization.kept, 6U);
    EXPECT_EQ(rep.sanitization.dropped_out_of_window, 1U);
    EXPECT_EQ(rep.sessions.sessions.size(), 6U);
}

// Tiny valid traces used to fail a contract inside the client layer:
// a constant concurrency series has no ACF, and a single client's
// interest profile has one rank, too few for a Zipf fit.
void expect_characterizes_tiny(trace t) {
    const auto rep = characterize_hierarchically(t);
    EXPECT_TRUE(rep.client.concurrency_acf.empty());
    EXPECT_FALSE(rep.client.concurrency_series.empty());
    EXPECT_NO_THROW(report_to_json(rep));
}

TEST(Hierarchical, OneShortRecordInADayCharacterizes) {
    trace t(seconds_per_day);
    log_record r;
    r.client = 1;
    r.start = 1000;
    r.duration = 5;
    r.avg_bandwidth_bps = 56000.0;
    t.add(r);
    expect_characterizes_tiny(t);
}

TEST(Hierarchical, OneClientGetsEmptyInterestFits) {
    // Two sessions far apart: the concurrency series varies, so only the
    // single-rank interest profiles are degenerate.
    trace t(seconds_per_day);
    for (const seconds_t start : {1000, 50000}) {
        log_record r;
        r.client = 1;
        r.start = start;
        r.duration = 600;
        r.avg_bandwidth_bps = 56000.0;
        t.add(r);
    }
    const auto rep = characterize_hierarchically(t);
    EXPECT_FALSE(rep.client.concurrency_acf.empty());
    EXPECT_EQ(rep.client.distinct_clients, 1U);
    EXPECT_EQ(rep.client.transfer_interest_profile.size(), 1U);
    EXPECT_EQ(rep.client.transfer_interest_fit.alpha, 0.0);
    EXPECT_EQ(rep.client.session_interest_fit.r_squared, 0.0);
    EXPECT_NO_THROW(report_to_json(rep));
}

TEST(Hierarchical, OneSessionSpanningTheWindowCharacterizes) {
    trace t(seconds_per_day);
    for (int i = 0; i < 4; ++i) {
        log_record r;
        r.client = 7;
        r.start = i * (seconds_per_day / 4);
        r.duration = seconds_per_day / 4;
        r.avg_bandwidth_bps = 300000.0;
        t.add(r);
    }
    expect_characterizes_tiny(t);
}

TEST(Hierarchical, ThirtySecondWindowCharacterizes) {
    trace t(30);
    for (int i = 0; i < 3; ++i) {
        log_record r;
        r.client = static_cast<client_id>(1 + i);
        r.start = 5 * i;
        r.duration = 10;
        r.avg_bandwidth_bps = 100000.0;
        t.add(r);
    }
    expect_characterizes_tiny(t);
}

}  // namespace
}  // namespace lsm::characterize
