// Performance microbenchmarks (google-benchmark): throughput of the
// generator, the sessionizer, the fitting routines, and the RNG — the
// hot paths of the library.
//
// When LSM_BENCH_JSON names a path, every run (including the 1/2/4/8-
// thread scaling rows) is also written there as one JSON document
// (schema "lsm-bench-v1"), for CI artifacts and regression tracking.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "characterize/live_daemon.h"
#include "characterize/session_builder.h"
#include "characterize/session_spill.h"
#include "characterize/transfer_layer.h"
#include "core/ingest.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/scan.h"
#include "core/swar.h"
#include "core/trace_io.h"
#include "core/trace_io_bin.h"
#include "core/varint.h"
#include "core/wms_log.h"
#include "sketch/countmin.h"
#include "sketch/hll.h"
#include "sketch/quantile.h"
#include "characterize/hierarchical.h"
#include "gismo/arrival_process.h"
#include "gismo/live_generator.h"
#include "gismo/vbr.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "stats/descriptive.h"
#include "stats/fitting.h"
#include "obs/profiler.h"
#include "obs/trace_event.h"
#include "stats/fitting.h"
#include "stats/timeseries.h"
#include "world/world_sim.h"

namespace {

using namespace lsm;

void BM_RngU64(benchmark::State& state) {
    rng r(1);
    for (auto _ : state) benchmark::DoNotOptimize(r.next_u64());
}
BENCHMARK(BM_RngU64);

void BM_RngLognormal(benchmark::State& state) {
    rng r(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(r.next_lognormal(4.4, 1.4));
    }
}
BENCHMARK(BM_RngLognormal);

void BM_ZipfSample(benchmark::State& state) {
    stats::zipf_dist d(0.4704, static_cast<std::uint64_t>(state.range(0)));
    rng r(3);
    for (auto _ : state) benchmark::DoNotOptimize(d.sample(r));
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000)->Arg(900000);

void BM_PiecewisePoissonDay(benchmark::State& state) {
    const auto profile =
        gismo::rate_profile::paper_daily(static_cast<double>(state.range(0)));
    rng r(4);
    for (auto _ : state) {
        auto arrivals =
            gismo::generate_piecewise_poisson(profile, seconds_per_day, r);
        benchmark::DoNotOptimize(arrivals.data());
        state.counters["arrivals"] = static_cast<double>(arrivals.size());
    }
}
BENCHMARK(BM_PiecewisePoissonDay)->Arg(1)->Arg(10);

void BM_GenerateLiveWorkloadDay(benchmark::State& state) {
    gismo::live_config cfg = gismo::live_config::scaled(0.1);
    cfg.window = seconds_per_day;
    std::uint64_t seed = 0;
    for (auto _ : state) {
        const trace t = gismo::generate_live_workload(cfg, ++seed);
        benchmark::DoNotOptimize(t.records().data());
        state.counters["transfers/s"] = benchmark::Counter(
            static_cast<double>(t.size()), benchmark::Counter::kIsRate);
    }
}
BENCHMARK(BM_GenerateLiveWorkloadDay)->Unit(benchmark::kMillisecond);

void BM_BuildSessions(benchmark::State& state) {
    gismo::live_config cfg = gismo::live_config::scaled(0.1);
    cfg.window = 2 * seconds_per_day;
    const trace t = gismo::generate_live_workload(cfg, 7);
    thread_pool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        auto ss = characterize::build_sessions(t, 1500, pool);
        benchmark::DoNotOptimize(ss.sessions.heads().data());
    }
    state.counters["records/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(t.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BuildSessions)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Lognormal(4.4, 1.4) draws, the transfer-length model of Fig 19; with
/// `rounded` on the ⌊t+1⌋ scale the pipeline fits (heavy ties), else
/// continuous (every value distinct).
std::vector<double> lognormal_sample(std::size_t n, bool rounded) {
    rng r(8);
    std::vector<double> xs(n);
    for (double& x : xs) {
        x = r.next_lognormal(4.4, 1.4);
        if (rounded) x = std::floor(x + 1.0);
    }
    return xs;
}

void BM_FitLognormal(benchmark::State& state) {
    const auto xs =
        lognormal_sample(static_cast<std::size_t>(state.range(0)), false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::fit_lognormal_mle(xs));
    }
}
BENCHMARK(BM_FitLognormal)->Arg(10000)->Arg(100000);

void BM_FitLognormalRounded(benchmark::State& state) {
    const auto xs =
        lognormal_sample(static_cast<std::size_t>(state.range(0)), true);
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::fit_lognormal_mle(xs));
    }
}
BENCHMARK(BM_FitLognormalRounded)->Arg(10000)->Arg(100000);

void BM_Summarize(benchmark::State& state) {
    const auto xs =
        lognormal_sample(static_cast<std::size_t>(state.range(0)), true);
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::summarize(xs));
    }
    state.counters["items/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(xs.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Summarize)->Arg(1500000)->Unit(benchmark::kMillisecond);

void BM_ConcurrencySeries(benchmark::State& state) {
    rng r(9);
    std::vector<stats::interval> intervals;
    for (int i = 0; i < 100000; ++i) {
        const auto start =
            static_cast<seconds_t>(r.next_below(seconds_per_day));
        intervals.push_back(
            {start, start + static_cast<seconds_t>(
                                r.next_lognormal(4.4, 1.4))});
    }
    for (auto _ : state) {
        auto s = stats::concurrency_series(intervals, 60, seconds_per_day);
        benchmark::DoNotOptimize(s.data());
    }
}
BENCHMARK(BM_ConcurrencySeries)->Unit(benchmark::kMillisecond);

void BM_FullCharacterizationPipeline(benchmark::State& state) {
    gismo::live_config cfg = gismo::live_config::scaled(0.05);
    cfg.window = 2 * seconds_per_day;
    trace t = gismo::generate_live_workload(cfg, 12);
    for (auto _ : state) {
        trace copy = t;
        characterize::hierarchical_config hcfg;
        hcfg.client.acf_max_lag = 200;
        auto rep = characterize::characterize_hierarchically(copy, hcfg);
        benchmark::DoNotOptimize(rep.transfer.length_fit.mu);
    }
    state.counters["records/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(t.size()),
        benchmark::Counter::kIsRate);
}
// The pipeline runs on every core, so the rate is taken over wall time.
BENCHMARK(BM_FullCharacterizationPipeline)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SessionCountSweep(benchmark::State& state) {
    gismo::live_config cfg = gismo::live_config::scaled(0.05);
    cfg.window = 2 * seconds_per_day;
    const trace t = gismo::generate_live_workload(cfg, 13);
    const std::vector<seconds_t> timeouts = {0,    250,  500, 1000,
                                             1500, 2500, 4000};
    for (auto _ : state) {
        auto counts = characterize::session_count_sweep(t, timeouts);
        benchmark::DoNotOptimize(counts.data());
    }
}
BENCHMARK(BM_SessionCountSweep)->Unit(benchmark::kMillisecond);

// --- Parallel scaling rows -------------------------------------------
// One row per thread count (1/2/4/8) so BENCH_*.json captures the speedup
// trajectory of the sharded pipeline. Output is identical across rows by
// construction (see DESIGN.md, "Parallel execution model"); only the wall
// clock should move.

void BM_WorldSimThreads(benchmark::State& state) {
    world::world_config cfg = world::world_config::scaled(0.02);
    cfg.window = 2 * seconds_per_day;
    cfg.target_sessions = 30000.0;
    cfg.threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        const auto res = world::simulate_world(cfg, 17);
        benchmark::DoNotOptimize(res.tr.records().data());
        state.counters["transfers/s"] = benchmark::Counter(
            static_cast<double>(res.tr.size()),
            benchmark::Counter::kIsRate);
    }
}
BENCHMARK(BM_WorldSimThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_GenerateLiveWorkloadThreads(benchmark::State& state) {
    gismo::live_config cfg = gismo::live_config::scaled(0.25);
    cfg.window = 2 * seconds_per_day;
    cfg.threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        const trace t = gismo::generate_live_workload(cfg, 18);
        benchmark::DoNotOptimize(t.records().data());
        state.counters["transfers/s"] = benchmark::Counter(
            static_cast<double>(t.size()), benchmark::Counter::kIsRate);
    }
}
BENCHMARK(BM_GenerateLiveWorkloadThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Trace for the end-to-end characterization scaling rows. Sized by the
/// LSM_BENCH_RECORDS env knob (default 250k transfers; the acceptance-
/// scale run uses LSM_BENCH_RECORDS=1000000 for a ~1M-record trace).
const trace& scaling_trace() {
    static const trace t = [] {
        double records = 250000.0;
        if (const char* env = std::getenv("LSM_BENCH_RECORDS")) {
            records = std::max(1000.0, std::atof(env));
        }
        gismo::live_config cfg = gismo::live_config::paper_defaults();
        // mean rate * mean transfers/session (~1.7 for Zipf 2.7042).
        const double records_per_second =
            cfg.arrivals.mean_rate() * 1.7;
        cfg.window = std::min<seconds_t>(
            28 * seconds_per_day,
            static_cast<seconds_t>(records / records_per_second));
        return gismo::generate_live_workload(cfg, 19);
    }();
    return t;
}

void BM_FullCharacterizationThreads(benchmark::State& state) {
    const trace& t = scaling_trace();
    for (auto _ : state) {
        trace copy = t;
        characterize::hierarchical_config hcfg;
        hcfg.client.acf_max_lag = 200;
        hcfg.threads = static_cast<unsigned>(state.range(0));
        auto rep = characterize::characterize_hierarchically(copy, hcfg);
        benchmark::DoNotOptimize(rep.transfer.length_fit.mu);
        state.counters["records/s"] = benchmark::Counter(
            static_cast<double>(t.size()), benchmark::Counter::kIsRate);
    }
}
BENCHMARK(BM_FullCharacterizationThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- Ingest rows -----------------------------------------------------
// Decode throughput of the two trace encodings over the scaling trace,
// serialized once up front; each row reports MB/s and records/s.

const std::string& scaling_trace_csv() {
    static const std::string buf = [] {
        std::ostringstream ss;
        write_trace_csv(scaling_trace(), ss);
        return std::move(ss).str();
    }();
    return buf;
}

const std::string& scaling_trace_bin() {
    static const std::string buf = [] {
        std::ostringstream ss;
        write_trace_bin(scaling_trace(), ss);
        return std::move(ss).str();
    }();
    return buf;
}

void set_ingest_counters(benchmark::State& state, std::size_t bytes,
                         std::size_t records) {
    // Per-iteration values; the iteration-invariant-rate flag scales by
    // iterations before dividing by wall time, so these are true
    // throughputs (plain kIsRate would report value/total_time and make
    // every row read the same regardless of speed).
    state.counters["MB/s"] = benchmark::Counter(
        static_cast<double>(bytes) / 1e6,
        benchmark::Counter::kIsIterationInvariantRate);
    state.counters["records/s"] = benchmark::Counter(
        static_cast<double>(records),
        benchmark::Counter::kIsIterationInvariantRate);
}

void BM_ReadTraceCsv(benchmark::State& state) {
    const std::string& buf = scaling_trace_csv();
    for (auto _ : state) {
        const trace t = read_trace_csv_buffer(buf);
        benchmark::DoNotOptimize(t.records().data());
        set_ingest_counters(state, buf.size(), t.size());
    }
}
BENCHMARK(BM_ReadTraceCsv)->Unit(benchmark::kMillisecond);

void BM_ReadTraceCsvThreads(benchmark::State& state) {
    const std::string& buf = scaling_trace_csv();
    thread_pool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        const trace t = read_trace_csv_buffer(buf, &pool);
        benchmark::DoNotOptimize(t.records().data());
        set_ingest_counters(state, buf.size(), t.size());
    }
}
BENCHMARK(BM_ReadTraceCsvThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ReadTraceBin(benchmark::State& state) {
    const std::string& buf = scaling_trace_bin();
    for (auto _ : state) {
        const trace t = read_trace_bin_buffer(buf);
        benchmark::DoNotOptimize(t.records().data());
        set_ingest_counters(state, buf.size(), t.size());
    }
}
BENCHMARK(BM_ReadTraceBin)->Unit(benchmark::kMillisecond);

/// The scaling trace serialized once to a real file, for the two
/// file-backed binary read paths (owning vs mmap view).
const std::string& scaling_trace_bin_path() {
    static const std::string path = [] {
        std::string p = (std::filesystem::temp_directory_path() /
                         "lsm_bench_perf_trace.bin")
                            .string();
        std::ofstream out(p, std::ios::binary | std::ios::trunc);
        out << scaling_trace_bin();
        return p;
    }();
    return path;
}

void BM_ReadTraceBinFile(benchmark::State& state) {
    const std::string& path = scaling_trace_bin_path();
    const std::size_t bytes = scaling_trace_bin().size();
    for (auto _ : state) {
        const trace t = read_trace_bin_file(path);
        benchmark::DoNotOptimize(t.records().data());
        set_ingest_counters(state, bytes, t.size());
    }
}
BENCHMARK(BM_ReadTraceBinFile)->Unit(benchmark::kMillisecond);

void BM_ReadTraceBinMmap(benchmark::State& state) {
    // Zero-copy path: map + checksum-validate, then consume through the
    // column spans without materializing records. The strided column
    // walk proves the spans are live data, not just an open handle.
    const std::string& path = scaling_trace_bin_path();
    const std::size_t bytes = scaling_trace_bin().size();
    for (auto _ : state) {
        const trace_view v = open_trace_bin_view_file(path);
        seconds_t sum = 0;
        for (std::size_t i = 0; i < v.size(); i += 512) sum += v.start(i);
        benchmark::DoNotOptimize(sum);
        set_ingest_counters(state, bytes, v.size());
    }
}
BENCHMARK(BM_ReadTraceBinMmap)->Unit(benchmark::kMillisecond);

const std::string& scaling_trace_bin_v2() {
    static const std::string buf = [] {
        std::ostringstream ss;
        trace_bin_write_options wopts;
        wopts.compress = true;
        write_trace_bin(scaling_trace(), ss, wopts);
        return std::move(ss).str();
    }();
    return buf;
}

void BM_ReadTraceBinV2(benchmark::State& state) {
    // Compressed decode: MB/s is over the smaller v2 image, so compare
    // records/s (not MB/s) against BM_ReadTraceBin for codec cost.
    const std::string& buf = scaling_trace_bin_v2();
    for (auto _ : state) {
        const trace t = read_trace_bin_buffer(buf);
        benchmark::DoNotOptimize(t.records().data());
        set_ingest_counters(state, buf.size(), t.size());
    }
}
BENCHMARK(BM_ReadTraceBinV2)->Unit(benchmark::kMillisecond);

void BM_WriteTraceBin(benchmark::State& state) {
    const trace& t = scaling_trace();
    for (auto _ : state) {
        std::ostringstream ss;
        write_trace_bin(t, ss);
        const std::string buf = std::move(ss).str();
        benchmark::DoNotOptimize(buf.data());
        set_ingest_counters(state, buf.size(), t.size());
    }
}
BENCHMARK(BM_WriteTraceBin)->Unit(benchmark::kMillisecond);

// --- Sketch / live-daemon rows ---------------------------------------
// Cost of the mergeable-sketch layer and the one-pass incremental
// service mode built on it. Each row reports keys-or-records/s plus
// the resident sketch footprint.

void BM_SketchAdd(benchmark::State& state) {
    // One add() into each sketch kind per key — the per-record sketch
    // tax the live daemon pays on top of parsing.
    hll h(14, 1);
    quantile_sketch q(0.01);
    countmin cm(4, 8192, 1);
    std::uint64_t k = 0x9e3779b97f4a7c15ULL;
    for (auto _ : state) {
        k += 0x9e3779b97f4a7c15ULL;
        h.add(k);
        q.add(static_cast<double>(k >> 40));
        cm.add(k & 0xffff);
        benchmark::DoNotOptimize(k);
    }
    state.counters["keys/s"] = benchmark::Counter(
        1.0, benchmark::Counter::kIsIterationInvariantRate);
    state.counters["sketch_bytes"] = static_cast<double>(
        h.state_bytes() + q.state_bytes() + cm.state_bytes());
}
BENCHMARK(BM_SketchAdd);

void BM_SketchMerge(benchmark::State& state) {
    // Merge of fully populated shard-local sketches — the per-shard
    // combine step of a parallel characterization.
    hll h1(14, 1), h2(14, 1);
    quantile_sketch q1(0.01), q2(0.01);
    countmin c1(4, 8192, 1), c2(4, 8192, 1);
    rng r(3);
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t k = r.next_u64();
        h1.add(k);
        h2.add(~k);
        q1.add(static_cast<double>(k >> 40));
        q2.add(static_cast<double>(~k >> 40));
        c1.add(k & 0xffff);
        c2.add(~k & 0xffff);
    }
    for (auto _ : state) {
        hll h = h1;
        quantile_sketch q = q1;
        countmin c = c1;
        h.merge(h2);
        q.merge(q2);
        c.merge(c2);
        benchmark::DoNotOptimize(h.state_bytes());
        benchmark::DoNotOptimize(q.state_bytes());
        benchmark::DoNotOptimize(c.state_bytes());
    }
    state.counters["merges/s"] = benchmark::Counter(
        1.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SketchMerge);

const std::string& scaling_trace_wms() {
    static const std::string buf = [] {
        std::ostringstream ss;
        write_wms_log(scaling_trace(), ss);
        return std::move(ss).str();
    }();
    return buf;
}

void BM_WmsParse(benchmark::State& state) {
    // Parse-only slice of the live daemon: fused framing+record decode
    // over the scaling trace's WMS text, falling back to framed
    // consume_line for directives — the exact loop consume_bytes runs,
    // minus sketches and sessionizer. The gap between this row's MB/s
    // and BM_LiveDaemonIngest's is the characterization tax.
    const std::string& buf = scaling_trace_wms();
    const lsm::ingest_options opts;
    std::uint64_t records = 0;
    for (auto _ : state) {
        lsm::wms_line_parser parser(opts);
        lsm::ingest_report rep;
        lsm::log_record r;
        std::size_t pos = 0;
        std::uint64_t n = 0;
        while (pos < buf.size()) {
            const std::size_t next =
                parser.try_consume_fast(buf, pos, r, rep);
            if (next != std::string_view::npos) {
                benchmark::DoNotOptimize(r.start);
                pos = next;
                ++n;
                continue;
            }
            std::size_t nl = buf.find('\n', pos);
            if (nl == std::string::npos) nl = buf.size();
            if (parser.consume_line(
                    std::string_view(buf).substr(pos, nl - pos),
                    nl < buf.size(), r, rep)) {
                benchmark::DoNotOptimize(r.start);
                ++n;
            }
            pos = nl + 1;
        }
        records = n;
        set_ingest_counters(state, buf.size(), n);
    }
    benchmark::DoNotOptimize(records);
}
BENCHMARK(BM_WmsParse)->Unit(benchmark::kMillisecond);

void BM_VarintDecodeBlock(benchmark::State& state) {
    // Word-at-a-time varint decode over a realistic column image: the
    // scaling trace's zigzag start deltas, the same value distribution
    // the bin-v2 reader's tiled sweep decodes. MB/s is over the
    // encoded bytes; records/s counts varints.
    const std::string block = [] {
        const trace& t = scaling_trace();
        std::string out;
        lsm::seconds_t prev = 0;
        for (const log_record& r : t.records()) {
            lsm::put_varint(out, lsm::zigzag_encode(r.start - prev));
            prev = r.start;
        }
        return out;
    }();
    const std::uint64_t count = scaling_trace().size();
    for (auto _ : state) {
        const char* p = block.data();
        const char* const end = p + block.size();
        std::int64_t sum = 0;
        while (p < end) {
            std::uint64_t v = 0;
            if (end - p >= 8) {
                const std::size_t n =
                    lsm::get_varint_in_word(lsm::swar::load8(p), v);
                p += n;
                if (n != 0) {
                    sum += lsm::zigzag_decode(v);
                    continue;
                }
            }
            p += lsm::get_varint(p, end, v);
            sum += lsm::zigzag_decode(v);
        }
        benchmark::DoNotOptimize(sum);
        set_ingest_counters(state, block.size(), count);
    }
}
BENCHMARK(BM_VarintDecodeBlock)->Unit(benchmark::kMillisecond);

void BM_Ipv4Parse(benchmark::State& state) {
    // Strict dotted-quad parse over newline-separated addresses drawn
    // from the scaling trace's client IP distribution.
    const std::string buf = [] {
        const trace& t = scaling_trace();
        std::string out;
        char tmp[20];
        for (const log_record& r : t.records()) {
            std::snprintf(tmp, sizeof tmp, "%u.%u.%u.%u\n", r.ip >> 24,
                          (r.ip >> 16) & 0xFF, (r.ip >> 8) & 0xFF,
                          r.ip & 0xFF);
            out += tmp;
        }
        return out;
    }();
    const std::uint64_t count = scaling_trace().size();
    for (auto _ : state) {
        std::uint64_t sum = 0;
        std::size_t pos = 0;
        const std::string_view view = buf;
        while (pos < view.size()) {
            const std::size_t nl = lsm::scan::find_byte(view, '\n', pos);
            std::uint32_t ip = 0;
            if (lsm::scan::parse_ipv4(view.substr(pos, nl - pos), ip)) {
                sum += ip;
            }
            pos = nl + 1;
        }
        benchmark::DoNotOptimize(sum);
        set_ingest_counters(state, buf.size(), count);
    }
}
BENCHMARK(BM_Ipv4Parse)->Unit(benchmark::kMillisecond);

void BM_LiveDaemonIngest(benchmark::State& state) {
    // Whole service mode end to end: WMS parse + sanitize + every
    // sketch + sessionizer + diurnal ring, one pass over the scaling
    // trace's log text. Compare records/s against
    // BM_FullCharacterizationPipeline for the batch-vs-incremental
    // cost, and MB/s against BM_ReadTraceCsv for parse overhead.
    const std::string& buf = scaling_trace_wms();
    std::size_t sketch_bytes = 0;
    std::uint64_t records = 0;
    for (auto _ : state) {
        characterize::live_daemon d;
        d.consume_bytes(buf);
        d.finish();
        benchmark::DoNotOptimize(d.records());
        sketch_bytes = d.sketch_state_bytes();
        records = d.records();
        set_ingest_counters(state, buf.size(), records);
    }
    state.counters["sketch_bytes"] = static_cast<double>(sketch_bytes);
}
BENCHMARK(BM_LiveDaemonIngest)->Unit(benchmark::kMillisecond);

void BM_SessionizeSpill(benchmark::State& state) {
    // Out-of-core sessionizer over the scaling trace: Arg is the
    // resident-record budget (0 = unbounded in-memory shortcut through
    // the same entry point); the delta between rows is the spill +
    // k-way-merge overhead of bounding the working set.
    const trace& t = scaling_trace();
    thread_pool pool(4);
    characterize::spill_options opts;
    opts.timeout = 1500;
    opts.max_resident_records = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        const auto ss = characterize::build_sessions_spill(t, opts, pool);
        benchmark::DoNotOptimize(ss.sessions.heads().data());
        state.counters["records/s"] = benchmark::Counter(
            static_cast<double>(t.size()),
            benchmark::Counter::kIsIterationInvariantRate);
    }
}
BENCHMARK(BM_SessionizeSpill)
    ->Arg(0)->Arg(32768)
    ->Unit(benchmark::kMillisecond);

void BM_VbrSeries(benchmark::State& state) {
    rng r(10);
    gismo::vbr_config cfg;
    for (auto _ : state) {
        auto s = gismo::generate_vbr_series(
            cfg, static_cast<std::size_t>(state.range(0)), r);
        benchmark::DoNotOptimize(s.data());
    }
}
BENCHMARK(BM_VbrSeries)->Arg(4096)->Arg(65536);

void BM_TracerOverhead(benchmark::State& state) {
    // Cost of the ambient execution tracer on the pool's shard slices:
    // Arg(0) runs untraced (one relaxed atomic load per slice site),
    // Arg(1) installs a global tracer so every shard records a B/E
    // pair. The delta between the rows is the per-run tracing cost.
    const bool traced = state.range(0) != 0;
    thread_pool pool(2);
    for (auto _ : state) {
        obs::tracer t;
        obs::global_tracer_guard guard(traced ? &t : nullptr);
        pool.run_shards(64, [](std::size_t shard) {
            volatile std::uint64_t sink = shard;
            for (int i = 0; i < 200; ++i) {
                sink = sink + static_cast<std::uint64_t>(i);
            }
        });
        benchmark::DoNotOptimize(t.recorded());
    }
    state.counters["shards/s"] =
        benchmark::Counter(64.0, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TracerOverhead)->Arg(0)->Arg(1);

void BM_LogEmit(benchmark::State& state) {
    // Cost of one structured log line end to end: level check, JSON
    // rendering with two fields, mutex-guarded sink write into an
    // in-memory stream. Arg(0) logs below the sink threshold (the
    // filtered fast path every silent call site pays), Arg(1) emits.
    const bool emits = state.range(0) != 0;
    obs::logger lg;
    std::ostringstream sink;
    lg.set_console(nullptr, obs::log_level::off);
    lg.set_structured(&sink, emits ? obs::log_level::info
                                   : obs::log_level::error);
    const obs::log_kv fields[] = {{"path", "/var/log/wms.log"},
                                  {"records", "12345"}};
    std::uint64_t lines = 0;
    for (auto _ : state) {
        lg.log(obs::log_level::info, "bench", "progress", fields);
        ++lines;
        if (sink.tellp() > (1 << 20)) {
            sink.str({});  // keep the sink from growing unboundedly
        }
    }
    state.counters["lines/s"] = benchmark::Counter(
        static_cast<double>(lines), benchmark::Counter::kIsRate);
    benchmark::DoNotOptimize(lg.emitted());
}
BENCHMARK(BM_LogEmit)->Arg(0)->Arg(1);

void BM_ProfilerOverhead(benchmark::State& state) {
    // Live-daemon ingest with the span-sampling profiler off (Arg 0)
    // and on (Arg 1). The delta between the rows is the acceptance
    // bound the observability plane promises: publishing span paths
    // into the sampler's slot table must cost <2% of ingest throughput.
    const bool profiled = state.range(0) != 0;
    const std::string& buf = scaling_trace_wms();
    obs::profiler prof;
    if (profiled) prof.start();
    std::uint64_t records = 0;
    for (auto _ : state) {
        obs::registry reg;
        obs::scoped_timer span(&reg, "bench/ingest");
        characterize::live_daemon d;
        d.consume_bytes(buf);
        d.finish();
        benchmark::DoNotOptimize(d.records());
        records = d.records();
        set_ingest_counters(state, buf.size(), records);
    }
    if (profiled) prof.stop();
    state.counters["prof_samples"] =
        static_cast<double>(prof.samples());
}
BENCHMARK(BM_ProfilerOverhead)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Console reporter that additionally captures every run, so main() can
/// dump the whole session as machine-readable JSON next to the normal
/// console table.
class capturing_reporter : public benchmark::ConsoleReporter {
public:
    struct captured_run {
        std::string name;
        double real_time = 0.0;  // per iteration, in `time_unit`
        double cpu_time = 0.0;
        std::string time_unit;
        std::int64_t iterations = 0;
        std::vector<std::pair<std::string, double>> counters;
    };

    void ReportRuns(const std::vector<Run>& reports) override {
        for (const Run& run : reports) {
            if (run.error_occurred) continue;
            captured_run c;
            c.name = run.benchmark_name();
            c.real_time = run.GetAdjustedRealTime();
            c.cpu_time = run.GetAdjustedCPUTime();
            c.time_unit = benchmark::GetTimeUnitString(run.time_unit);
            c.iterations = run.iterations;
            for (const auto& [cname, counter] : run.counters) {
                c.counters.emplace_back(cname, counter.value);
            }
            runs_.push_back(std::move(c));
        }
        benchmark::ConsoleReporter::ReportRuns(reports);
    }

    const std::vector<captured_run>& runs() const { return runs_; }

private:
    std::vector<captured_run> runs_;
};

void write_runs_json(const std::vector<capturing_reporter::captured_run>&
                         runs,
                     const char* path) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for bench JSON\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"schema\": \"lsm-bench-v1\",\n");
    std::fprintf(f, "  \"bench\": \"perf_microbench\",\n  \"rows\": [");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto& r = runs[i];
        std::fprintf(f,
                     "%s\n    {\"name\": \"%s\", \"real_time\": %.10g, "
                     "\"cpu_time\": %.10g, \"time_unit\": \"%s\", "
                     "\"iterations\": %lld",
                     i == 0 ? "" : ",", r.name.c_str(), r.real_time,
                     r.cpu_time, r.time_unit.c_str(),
                     static_cast<long long>(r.iterations));
        std::fprintf(f, ", \"counters\": {");
        for (std::size_t j = 0; j < r.counters.size(); ++j) {
            std::fprintf(f, "%s\"%s\": %.10g", j == 0 ? "" : ", ",
                         r.counters[j].first.c_str(),
                         r.counters[j].second);
        }
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    capturing_reporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    if (const char* path = std::getenv("LSM_BENCH_JSON")) {
        write_runs_json(reporter.runs(), path);
    }
    benchmark::Shutdown();
    return 0;
}
