#include "characterize/hierarchical.h"

#include <chrono>
#include <iterator>
#include <string_view>

#include "characterize/session_spill.h"
#include "core/contracts.h"
#include "core/parallel.h"
#include "obs/metrics.h"

namespace lsm::characterize {

namespace {

// The layer stage's dispatch order: every part of the three layers,
// largest first, so the pool's FIFO queue hands out the long parts
// before the short ones fill the gaps. Per-part wall time at paper scale
// (gen_workload scale=1.0 seed=1, 2.4M transfers; characterize_trace
// --json --threads 1 --metrics-out, Release, 4-core x86-64, four runs):
constexpr std::string_view k_largest_first[] = {
    "session/all",             // 0.17-0.25 s
    "transfer/interarrivals",  // 0.15-0.19 s
    "client/diversity",        // 0.13-0.17 s
    "client/interarrivals",    // 0.13-0.16 s
    "client/concurrency",      // 0.09-0.15 s
    "client/interest",         // 0.11-0.14 s
    "transfer/concurrency",    // 0.10 s
    "transfer/lengths",        // 0.07-0.09 s
    "transfer/bandwidth",      // 0.03 s
};

// Runs every layer part as one flat list through a single run_shards
// call (DESIGN.md §6, "The layer stage"). Parts only read `t` and the
// finished session set and write disjoint report fields; each is
// internally sequential, so the report is bit-identical for any pool
// size. The list is flat because a nested dispatch from a part would
// run inline on the worker that holds it.
void run_layer_stage(const trace& t, const hierarchical_config& cfg,
                     thread_pool& pool, hierarchical_report& rep) {
    obs::registry* metrics = cfg.metrics;
    obs::scoped_timer t_layers(metrics, "layers");
    constexpr std::string_view layers[] = {"client", "session", "transfer"};
    const std::vector<layer_task> tasks[] = {
        client_layer_tasks(t, rep.sessions, cfg.client, rep.client),
        session_layer_tasks(rep.sessions, cfg.session, rep.session),
        transfer_layer_tasks(t, cfg.transfer, rep.transfer)};

    struct part {
        std::size_t layer;
        const layer_task* task;
        std::string span;  // absolute: parts run on pool workers
    };
    std::vector<part> parts;
    for (const std::string_view path : k_largest_first) {
        const std::size_t slash = path.find('/');
        for (std::size_t l = 0; l < std::size(layers); ++l) {
            if (layers[l] != path.substr(0, slash)) continue;
            for (const layer_task& task : tasks[l]) {
                if (task.name != path.substr(slash + 1)) continue;
                parts.push_back({l, &task,
                                 "characterize/layers/" + std::string(path)});
            }
        }
    }
    LSM_ENSURES(parts.size() ==
                tasks[0].size() + tasks[1].size() + tasks[2].size());

    // Busy time per part, clocked only when metrics are on.
    using clock = std::chrono::steady_clock;
    std::vector<clock::duration> busy(parts.size());
    pool.run_shards(parts.size(), [&](std::size_t i) {
        const clock::time_point start =
            metrics != nullptr ? clock::now() : clock::time_point{};
        {
            obs::scoped_timer t_part(metrics, parts[i].span);
            parts[i].task->run();
        }
        if (metrics != nullptr) busy[i] = clock::now() - start;
    });
    // Each layer's span records once: the summed busy time of its parts.
    if (metrics == nullptr) return;
    for (std::size_t l = 0; l < std::size(layers); ++l) {
        clock::duration sum{};
        for (std::size_t i = 0; i < parts.size(); ++i) {
            if (parts[i].layer == l) sum += busy[i];
        }
        metrics
            ->span_at("characterize/layers/" + std::string(layers[l]))
            .record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(sum)
                    .count()));
    }
}

}  // namespace

hierarchical_report characterize_hierarchically(
    trace& t, const hierarchical_config& cfg) {
    LSM_EXPECTS(!t.empty());
    obs::registry* metrics = cfg.metrics;
    obs::scoped_timer t_all(metrics, "characterize");
    obs::add_counter(metrics, "characterize/records_in", t.size());

    hierarchical_report rep;
    if (cfg.sanitize_first) {
        obs::scoped_timer t_san(metrics, "sanitize");
        rep.sanitization = sanitize(t);
        if (t.empty()) throw sanitization_emptied_trace(rep.sanitization);
    } else {
        rep.sanitization.kept = t.size();
    }
    if (metrics != nullptr) {
        metrics->get_counter("characterize/sanitize/kept")
            .add(rep.sanitization.kept);
        metrics->get_counter("characterize/sanitize/dropped_out_of_window")
            .add(rep.sanitization.dropped_out_of_window);
        metrics->get_counter("characterize/sanitize/dropped_negative")
            .add(rep.sanitization.dropped_negative);
    }

    thread_pool pool(cfg.threads);
    {
        obs::scoped_timer t_sum(metrics, "summary");
        rep.summary = summarize(t, pool);
    }
    if (cfg.max_resident_records > 0) {
        spill_options sopts;
        sopts.timeout = cfg.session_timeout;
        sopts.max_resident_records = cfg.max_resident_records;
        sopts.spill_dir = cfg.spill_dir;
        sopts.metrics = metrics;
        rep.sessions = build_sessions_spill(t, sopts, pool);
    } else {
        rep.sessions = build_sessions(t, cfg.session_timeout, pool,
                                      metrics);
    }
    run_layer_stage(t, cfg, pool, rep);
    return rep;
}

}  // namespace lsm::characterize
