// The headline invariant of the parallel pipeline: traces and reports are
// identical for every thread count. These tests run the world simulator,
// the GISMO live generator, and the full hierarchical characterization at
// 1, 2, and 8 threads on the same seed and assert byte-level equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "characterize/hierarchical.h"
#include "characterize/report_json.h"
#include "core/trace_io.h"
#include "gismo/live_generator.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace_event.h"
#include "world/world_sim.h"

namespace lsm {
namespace {

void expect_records_identical(const std::vector<log_record>& a,
                              const std::vector<log_record>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].client, b[i].client) << "record " << i;
        ASSERT_EQ(a[i].ip, b[i].ip) << "record " << i;
        ASSERT_EQ(a[i].asn, b[i].asn) << "record " << i;
        ASSERT_EQ(a[i].country, b[i].country) << "record " << i;
        ASSERT_EQ(a[i].object, b[i].object) << "record " << i;
        ASSERT_EQ(a[i].start, b[i].start) << "record " << i;
        ASSERT_EQ(a[i].duration, b[i].duration) << "record " << i;
        ASSERT_EQ(a[i].avg_bandwidth_bps, b[i].avg_bandwidth_bps)
            << "record " << i;
        ASSERT_EQ(a[i].packet_loss, b[i].packet_loss) << "record " << i;
        ASSERT_EQ(a[i].server_cpu, b[i].server_cpu) << "record " << i;
        ASSERT_EQ(a[i].status, b[i].status) << "record " << i;
    }
}

TEST(Determinism, WorldSimTraceIdenticalAcrossThreadCounts) {
    world::world_config cfg = world::world_config::scaled(0.01);
    cfg.window = 2 * seconds_per_day;
    cfg.target_sessions = 2000.0;

    cfg.threads = 1;
    const auto base = world::simulate_world(cfg, 42);
    ASSERT_GT(base.tr.size(), 100U);
    for (unsigned threads : {2U, 8U}) {
        cfg.threads = threads;
        const auto res = world::simulate_world(cfg, 42);
        SCOPED_TRACE(threads);
        expect_records_identical(base.tr.records(), res.tr.records());
        EXPECT_EQ(base.truth.sessions_generated,
                  res.truth.sessions_generated);
        EXPECT_EQ(base.truth.transfers_generated,
                  res.truth.transfers_generated);
        EXPECT_EQ(base.truth.corrupted_records,
                  res.truth.corrupted_records);
    }
}

TEST(Determinism, LiveGeneratorPlanIdenticalAcrossThreadCounts) {
    gismo::live_config cfg = gismo::live_config::scaled(0.01);
    cfg.window = 2 * seconds_per_day;

    cfg.threads = 1;
    const auto base = gismo::generate_live_plan(cfg, 7);
    ASSERT_GT(base.size(), 100U);
    for (unsigned threads : {2U, 8U}) {
        cfg.threads = threads;
        const auto plan = gismo::generate_live_plan(cfg, 7);
        SCOPED_TRACE(threads);
        ASSERT_EQ(base.size(), plan.size());
        for (std::size_t i = 0; i < base.size(); ++i) {
            ASSERT_EQ(base[i].session, plan[i].session) << "item " << i;
        }
        std::vector<log_record> a, b;
        for (const auto& item : base) a.push_back(item.record);
        for (const auto& item : plan) b.push_back(item.record);
        expect_records_identical(a, b);
    }
}

void expect_sessions_identical(const characterize::session_set& a,
                               const characterize::session_set& b) {
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    for (std::size_t i = 0; i < a.sessions.size(); ++i) {
        const auto& sa = a.sessions[i];
        const auto& sb = b.sessions[i];
        ASSERT_EQ(sa.client, sb.client) << "session " << i;
        ASSERT_EQ(sa.start, sb.start) << "session " << i;
        ASSERT_EQ(sa.end, sb.end) << "session " << i;
        ASSERT_EQ(sa.num_transfers, sb.num_transfers) << "session " << i;
        ASSERT_TRUE(std::ranges::equal(sa.transfer_starts, sb.transfer_starts))
            << "session " << i;
        ASSERT_TRUE(std::ranges::equal(sa.transfer_ends, sb.transfer_ends))
            << "session " << i;
        ASSERT_TRUE(
            std::ranges::equal(sa.transfer_objects, sb.transfer_objects))
            << "session " << i;
    }
}

TEST(Determinism, CharacterizationReportIdenticalAcrossThreadCounts) {
    gismo::live_config gen_cfg = gismo::live_config::scaled(0.01);
    gen_cfg.window = 2 * seconds_per_day;
    const trace source = gismo::generate_live_workload(gen_cfg, 99);
    ASSERT_FALSE(source.empty());

    characterize::hierarchical_config hcfg;
    hcfg.client.acf_max_lag = 100;

    hcfg.threads = 1;
    trace t1 = source;
    const auto base = characterize::characterize_hierarchically(t1, hcfg);

    for (unsigned threads : {2U, 8U}) {
        hcfg.threads = threads;
        trace tn = source;
        const auto rep =
            characterize::characterize_hierarchically(tn, hcfg);
        SCOPED_TRACE(threads);

        expect_sessions_identical(base.sessions, rep.sessions);

        EXPECT_EQ(base.sanitization.kept, rep.sanitization.kept);
        EXPECT_EQ(base.summary.num_clients, rep.summary.num_clients);
        EXPECT_EQ(base.summary.num_transfers, rep.summary.num_transfers);
        EXPECT_EQ(base.summary.total_bytes, rep.summary.total_bytes);

        // Client layer: bitwise-equal series and fits.
        EXPECT_EQ(base.client.concurrency_series,
                  rep.client.concurrency_series);
        EXPECT_EQ(base.client.concurrency_acf, rep.client.concurrency_acf);
        EXPECT_EQ(base.client.client_interarrivals,
                  rep.client.client_interarrivals);
        EXPECT_EQ(base.client.transfer_interest_fit.alpha,
                  rep.client.transfer_interest_fit.alpha);
        EXPECT_EQ(base.client.total_sessions, rep.client.total_sessions);
        EXPECT_EQ(base.client.distinct_clients,
                  rep.client.distinct_clients);

        // Session layer.
        EXPECT_EQ(base.session.on_times, rep.session.on_times);
        EXPECT_EQ(base.session.off_times, rep.session.off_times);
        EXPECT_EQ(base.session.on_fit.mu, rep.session.on_fit.mu);
        EXPECT_EQ(base.session.on_fit.sigma, rep.session.on_fit.sigma);
        EXPECT_EQ(base.session.intra_fit.mu, rep.session.intra_fit.mu);
        EXPECT_EQ(base.session.overlap_fraction,
                  rep.session.overlap_fraction);

        // Transfer layer.
        EXPECT_EQ(base.transfer.interarrivals, rep.transfer.interarrivals);
        EXPECT_EQ(base.transfer.lengths, rep.transfer.lengths);
        EXPECT_EQ(base.transfer.length_fit.mu, rep.transfer.length_fit.mu);
        EXPECT_EQ(base.transfer.length_fit.sigma,
                  rep.transfer.length_fit.sigma);
        EXPECT_EQ(base.transfer.congestion_bound_fraction,
                  rep.transfer.congestion_bound_fraction);
    }
}

TEST(Determinism, ObservabilityHooksDoNotPerturbOutputs) {
    // Metrics, time-series sampling, and execution tracing are strictly
    // observers: with a registry and an ambient tracer installed, the
    // world-sim trace and the characterization report must stay
    // byte-identical to the instrumentation-free run at every thread
    // count.
    world::world_config wcfg = world::world_config::scaled(0.01);
    wcfg.window = 2 * seconds_per_day;
    wcfg.target_sessions = 2000.0;
    wcfg.threads = 1;
    const auto plain = world::simulate_world(wcfg, 42);
    ASSERT_GT(plain.tr.size(), 100U);
    std::ostringstream plain_csv;
    write_trace_csv(plain.tr, plain_csv);

    characterize::hierarchical_config hcfg;
    hcfg.client.acf_max_lag = 100;
    hcfg.threads = 1;
    trace plain_trace = plain.tr;
    const auto plain_rep =
        characterize::characterize_hierarchically(plain_trace, hcfg);
    std::ostringstream plain_json;
    characterize::write_report_json(plain_rep, plain_json);

    for (unsigned threads : {1U, 2U, 8U}) {
        SCOPED_TRACE(threads);
        obs::registry reg;
        obs::tracer exec_tracer;
        obs::global_tracer_guard guard(&exec_tracer);
        // The span-sampling profiler is the most intrusive observer —
        // every scoped_timer publishes its path while one runs — so it
        // must also leave outputs byte-identical.
        obs::profiler prof;
        obs::profiler::options popts;
        popts.interval = std::chrono::milliseconds(1);
        prof.start(popts);

        world::world_config wc = wcfg;
        wc.threads = threads;
        wc.metrics = &reg;
        const auto res = world::simulate_world(wc, 42);
        std::ostringstream csv;
        write_trace_csv(res.tr, csv);
        EXPECT_EQ(plain_csv.str(), csv.str());

        characterize::hierarchical_config hc = hcfg;
        hc.threads = threads;
        hc.metrics = &reg;
        trace tn = res.tr;
        const auto rep = characterize::characterize_hierarchically(tn, hc);
        std::ostringstream json;
        characterize::write_report_json(rep, json);
        EXPECT_EQ(plain_json.str(), json.str());

        // The hooks must actually have observed the run.
        EXPECT_GT(exec_tracer.recorded(), 0U);
        EXPECT_FALSE(reg.series().empty());
        prof.stop();
        EXPECT_GT(prof.ticks(), 0U);
    }
}

TEST(Determinism, SequentialAndPooledSessionBuildsAgree) {
    gismo::live_config cfg = gismo::live_config::scaled(0.01);
    cfg.window = seconds_per_day;
    const trace t = gismo::generate_live_workload(cfg, 3);

    const auto sequential = characterize::build_sessions(t, 1500);
    for (unsigned threads : {2U, 3U, 8U}) {
        thread_pool pool(threads);
        const auto pooled = characterize::build_sessions(t, 1500, pool);
        SCOPED_TRACE(threads);
        expect_sessions_identical(sequential, pooled);
    }
}

}  // namespace
}  // namespace lsm
