// Full hierarchical characterization of a trace file — the paper's
// Sections 3-5 as a command-line tool.
//
//   $ ./characterize_trace <trace.csv|trace.bin> [session_timeout_seconds]
//   $ ./characterize_trace --demo          # world-sim a demo trace first
//   $ ./characterize_trace --json <trace>       # machine-readable output
//   $ ./characterize_trace --metrics-out m.json <trace>      # obs dump
//   $ ./characterize_trace --trace-out t.json <trace>  # execution trace
//   $ ./characterize_trace --series-out s.csv --demo   # sim-time series
//   $ ./characterize_trace --trace-format bin --demo  # binary demo trace
//   $ ./characterize_trace --sessions-only --sessions-out s.csv
//         --max-resident-records 100000 <trace.bin>   # out-of-core
//
// Input traces may be the library's CSV or the binary columnar format
// (core/trace_io_bin.h); the reader sniffs the leading bytes, so both
// work without a flag. --trace-format picks the format --demo writes.
//
// --max-resident-records N caps the sessionizer's working set: when
// N > 0 sessionization runs through the spill-and-merge pipeline
// (characterize/session_spill.h) and, for binary inputs under
// --sessions-only, the trace itself is streamed chunk by chunk so peak
// memory stays near N records regardless of file size. The session
// output is byte-identical to the uncapped run for every N and thread
// count — the CI memory-cap gate diffs exactly that.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "characterize/hierarchical.h"
#include "characterize/report.h"
#include "characterize/report_json.h"
#include "characterize/session_builder.h"
#include "characterize/session_spill.h"
#include "core/ingest.h"
#include "core/parallel.h"
#include "core/trace_io.h"
#include "core/trace_io_bin.h"
#include "obs/httpd.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/sinks.h"
#include "obs/trace_event.h"
#include "world/world_sim.h"

int main(int argc, char** argv) {
    if (argc < 2) {
        std::cerr << "usage: " << argv[0]
                  << " [--json] [--threads N] [--metrics-out m.json]"
                  << " [--trace-out t.json] [--series-out s.csv]"
                  << " [--trace-format csv|bin]"
                  << " [--on-error strict|skip|quarantine] [--max-errors N]"
                  << " [--quarantine-out q.txt]"
                  << " [--max-resident-records N] [--spill-dir DIR]"
                  << " [--sessions-out s.csv] [--sessions-only]"
                  << " [--listen HOST:PORT] [--log-out l.jsonl]"
                  << " [--log-level LV] [--profile-out p.txt]"
                  << " <trace-file> [session_timeout] | --demo\n";
        return 1;
    }
    lsm::seconds_t timeout = lsm::characterize::default_session_timeout;

    bool json = false;
    unsigned threads = 0;  // 0 = hardware concurrency
    std::string metrics_out;
    std::string trace_out;
    std::string series_out;
    std::string quarantine_out;
    std::string sessions_out;
    std::string spill_dir;
    std::size_t max_resident = 0;
    bool sessions_only = false;
    std::string listen_addr;
    std::string log_out;
    std::string log_level_str;
    std::string profile_out;
    int profile_interval_ms = 10;
    lsm::ingest_options iopts;
    bool on_error_set = false;
    lsm::trace_format demo_format = lsm::trace_format::csv;
    int argi = 1;
    while (argi < argc) {
        const std::string flag = argv[argi];
        if (flag == "--json") {
            json = true;
            ++argi;
        } else if (flag == "--threads") {
            if (argi + 1 >= argc) {
                std::cerr << "--threads requires a count\n";
                return 1;
            }
            threads = static_cast<unsigned>(std::atoi(argv[argi + 1]));
            argi += 2;
        } else if (flag == "--metrics-out") {
            if (argi + 1 >= argc) {
                std::cerr << "--metrics-out requires a path\n";
                return 1;
            }
            metrics_out = argv[argi + 1];
            argi += 2;
        } else if (flag == "--trace-out") {
            if (argi + 1 >= argc) {
                std::cerr << "--trace-out requires a path\n";
                return 1;
            }
            trace_out = argv[argi + 1];
            argi += 2;
        } else if (flag == "--series-out") {
            if (argi + 1 >= argc) {
                std::cerr << "--series-out requires a path\n";
                return 1;
            }
            series_out = argv[argi + 1];
            argi += 2;
        } else if (flag == "--trace-format") {
            if (argi + 1 >= argc) {
                std::cerr << "--trace-format requires csv or bin\n";
                return 1;
            }
            try {
                demo_format = lsm::parse_trace_format(argv[argi + 1]);
            } catch (const std::exception& e) {
                std::cerr << e.what() << "\n";
                return 1;
            }
            argi += 2;
        } else if (flag == "--on-error") {
            if (argi + 1 >= argc) {
                std::cerr << "--on-error requires strict, skip, or "
                             "quarantine\n";
                return 1;
            }
            try {
                iopts.on_error = lsm::parse_on_error_policy(argv[argi + 1]);
            } catch (const std::exception& e) {
                std::cerr << e.what() << "\n";
                return 1;
            }
            on_error_set = true;
            argi += 2;
        } else if (flag == "--max-errors") {
            if (argi + 1 >= argc) {
                std::cerr << "--max-errors requires a count\n";
                return 1;
            }
            iopts.max_errors = std::strtoull(argv[argi + 1], nullptr, 10);
            argi += 2;
        } else if (flag == "--quarantine-out") {
            if (argi + 1 >= argc) {
                std::cerr << "--quarantine-out requires a path\n";
                return 1;
            }
            quarantine_out = argv[argi + 1];
            argi += 2;
        } else if (flag == "--max-resident-records") {
            if (argi + 1 >= argc) {
                std::cerr << "--max-resident-records requires a count\n";
                return 1;
            }
            max_resident = std::strtoull(argv[argi + 1], nullptr, 10);
            argi += 2;
        } else if (flag == "--spill-dir") {
            if (argi + 1 >= argc) {
                std::cerr << "--spill-dir requires a path\n";
                return 1;
            }
            spill_dir = argv[argi + 1];
            argi += 2;
        } else if (flag == "--sessions-out") {
            if (argi + 1 >= argc) {
                std::cerr << "--sessions-out requires a path\n";
                return 1;
            }
            sessions_out = argv[argi + 1];
            argi += 2;
        } else if (flag == "--sessions-only") {
            sessions_only = true;
            ++argi;
        } else if (flag == "--listen") {
            if (argi + 1 >= argc) {
                std::cerr << "--listen requires HOST:PORT\n";
                return 1;
            }
            listen_addr = argv[argi + 1];
            argi += 2;
        } else if (flag == "--log-out") {
            if (argi + 1 >= argc) {
                std::cerr << "--log-out requires a path\n";
                return 1;
            }
            log_out = argv[argi + 1];
            argi += 2;
        } else if (flag == "--log-level") {
            if (argi + 1 >= argc) {
                std::cerr << "--log-level requires "
                             "debug|info|warn|error|off\n";
                return 1;
            }
            log_level_str = argv[argi + 1];
            argi += 2;
        } else if (flag == "--profile-out") {
            if (argi + 1 >= argc) {
                std::cerr << "--profile-out requires a path\n";
                return 1;
            }
            profile_out = argv[argi + 1];
            argi += 2;
        } else if (flag == "--profile-interval-ms") {
            if (argi + 1 >= argc) {
                std::cerr << "--profile-interval-ms requires a count\n";
                return 1;
            }
            profile_interval_ms = std::atoi(argv[argi + 1]);
            argi += 2;
        } else {
            break;
        }
    }
    if (argi >= argc) {
        std::cerr << "missing trace path (or --demo)\n";
        return 1;
    }
    // Asking for a quarantine file implies the quarantine policy.
    if (!quarantine_out.empty() && !on_error_set) {
        iopts.on_error = lsm::on_error_policy::quarantine;
    }
    // Shift remaining positional arguments.
    argv += argi - 1;
    argc -= argi - 1;

    // Telemetry plumbing mirrors lsm_live: console log level only
    // changes when asked, so default stderr output stays byte-stable.
    if (!log_level_str.empty()) {
        try {
            lsm::obs::global_logger().set_console(
                &std::cerr, lsm::obs::parse_log_level(log_level_str));
        } catch (const std::exception& e) {
            std::cerr << e.what() << "\n";
            return 1;
        }
    }
    if (!log_out.empty() &&
        !lsm::obs::global_logger().open_structured(
            log_out, lsm::obs::log_level::debug, std::cerr)) {
        return 1;
    }

    // One registry for the whole run; every instrumented layer the tool
    // touches records into it, and it is dumped once at exit. Serving
    // or profiling forces it on: both read the span tree the
    // instrumented layers only build when a registry is present.
    lsm::obs::registry reg;
    lsm::obs::registry* metrics =
        metrics_out.empty() && series_out.empty() && listen_addr.empty() &&
                profile_out.empty()
            ? nullptr
            : &reg;

    lsm::obs::profiler prof;
    if (!profile_out.empty()) {
        lsm::obs::profiler::options popts;
        popts.interval =
            std::chrono::milliseconds(std::max(1, profile_interval_ms));
        prof.start(popts);
    }

    // Registry reads are snapshots, so scrape handlers can read `reg`
    // concurrently with the phases still writing into it. Unlike the
    // live daemon there is no re-export problem: counters here are
    // added once by the run itself, so /metrics serves `reg` directly.
    // Profiler gauges ride along on HTTP scrapes only — --metrics-out
    // files stay byte-identical whether or not the profiler ran.
    lsm::obs::httpd server;
    const auto started = std::chrono::steady_clock::now();
    if (!listen_addr.empty()) {
        const std::size_t colon = listen_addr.rfind(':');
        if (colon == std::string::npos) {
            std::cerr << "--listen expects HOST:PORT\n";
            return 1;
        }
        const std::string host = listen_addr.substr(0, colon);
        const int port = std::atoi(listen_addr.c_str() + colon + 1);
        server.handle("/metrics", [&](const lsm::obs::http_request&) {
            std::ostringstream out;
            reg.write_prometheus(out);
            if (prof.running()) {
                lsm::obs::registry preg;
                prof.export_metrics(preg);
                preg.write_prometheus(out);
            }
            lsm::obs::http_response r;
            r.content_type = "text/plain; version=0.0.4; charset=utf-8";
            r.body = out.str();
            return r;
        });
        server.handle("/metrics.json", [&](const lsm::obs::http_request&) {
            std::ostringstream out;
            reg.write_json(out);
            out << '\n';
            lsm::obs::http_response r;
            r.content_type = "application/json";
            r.body = out.str();
            return r;
        });
        server.handle("/healthz", [&](const lsm::obs::http_request&) {
            // A batch tool is healthy while the process is alive to
            // answer; there is no ingest-progress watchdog here.
            lsm::obs::http_response r;
            r.body = "ok\n";
            return r;
        });
        server.handle("/statusz", [&](const lsm::obs::http_request&) {
            const double up_s = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    started)
                                    .count();
            std::ostringstream out;
            out << "characterize_trace status\nuptime_seconds: "
                << static_cast<std::int64_t>(up_s)
                << "\nhttp_requests: " << server.requests_served()
                << "\nlog_lines_emitted: "
                << lsm::obs::global_logger().emitted() << "\n";
            if (prof.running()) {
                out << "\nprofiler (" << prof.samples() << " samples):\n";
                prof.write_top(out, 10);
            }
            lsm::obs::http_response r;
            r.body = out.str();
            return r;
        });
        std::string err;
        if (!server.start(host, static_cast<std::uint16_t>(port), &err)) {
            std::cerr << "cannot start telemetry server: " << err << "\n";
            return 1;
        }
        std::cerr << "telemetry listening on " << host << ":"
                  << server.port() << "\n";
    }
    // The execution tracer is ambient: installing it lights up every
    // scoped_timer span and pool shard without any config plumbing.
    lsm::obs::tracer exec_tracer;
    lsm::obs::global_tracer_guard tracer_guard(
        trace_out.empty() ? nullptr : &exec_tracer);
    // Observability sinks are auxiliary: an unwritable path must not
    // fail a run whose analysis succeeded, so each write degrades to a
    // warning.
    auto dump_metrics = [&]() {
        // Telemetry teardown first: the server must stop before the
        // process exits, and the profiler's collapsed output covers the
        // whole run once the sampler has been joined.
        server.stop();
        if (prof.running()) {
            prof.stop();
            std::ostringstream collapsed;
            prof.write_collapsed(collapsed);
            if (!profile_out.empty() &&
                lsm::obs::try_write_sink(
                    "profile", profile_out,
                    [&] {
                        lsm::obs::write_file_atomic(profile_out,
                                                    collapsed.str());
                    },
                    std::cerr)) {
                std::cerr << "profile written to " << profile_out << " ("
                          << prof.samples() << " samples)\n";
            }
        }
        if (!metrics_out.empty() &&
            lsm::obs::try_write_sink(
                "metrics", metrics_out,
                [&] { reg.write_json_file(metrics_out); }, std::cerr)) {
            std::cerr << "metrics written to " << metrics_out << "\n";
        }
        if (!series_out.empty() &&
            lsm::obs::try_write_sink(
                "series", series_out,
                [&] { reg.write_series_csv_file(series_out); },
                std::cerr)) {
            std::cerr << "series written to " << series_out << "\n";
        }
        if (!trace_out.empty() &&
            lsm::obs::try_write_sink(
                "execution trace", trace_out,
                [&] { exec_tracer.write_json_file(trace_out); },
                std::cerr)) {
            std::cerr << "execution trace written to " << trace_out
                      << "\n";
        }
    };

    // Built before the read so CSV ingest can decode on the pool.
    lsm::thread_pool pool(threads);

    // --sessions-only: sessionize and emit the session CSV, skipping the
    // layer analyses. With a binary input and a resident budget the trace
    // is never materialized — records stream straight from the file into
    // the spill pipeline — so this is the path whose peak memory the CI
    // memory-cap gate pins under ulimit -v.
    if (sessions_only) {
        if (sessions_out.empty()) {
            std::cerr << "--sessions-only requires --sessions-out\n";
            return 1;
        }
        const std::string path = argv[1];
        if (path == "--demo") {
            std::cerr << "--sessions-only requires a trace file\n";
            return 1;
        }
        if (argc > 2) timeout = std::atoll(argv[2]);
        if (timeout <= 0) {
            std::cerr << "session timeout must be positive\n";
            return 1;
        }
        bool is_bin = false;
        {
            std::ifstream probe(path, std::ios::binary);
            char head[16] = {};
            probe.read(head, sizeof head);
            is_bin = probe.gcount() == sizeof head &&
                     lsm::buffer_is_trace_bin({head, sizeof head});
        }
        lsm::ingest_report srep;
        try {
            std::ofstream out(sessions_out);
            if (!out) {
                std::cerr << "cannot open " << sessions_out << "\n";
                return 1;
            }
            lsm::characterize::spill_options sopts;
            sopts.timeout = timeout;
            sopts.max_resident_records = max_resident;
            sopts.spill_dir = spill_dir;
            sopts.metrics = metrics;
            std::uint64_t emitted = 0;
            lsm::characterize::write_sessions_csv_header(out, timeout);
            if (is_bin && max_resident > 0) {
                // Streamed: bounded reader + per-chunk sanitize. The
                // sanitize predicate is per-record, so applying it chunk
                // by chunk drops exactly the records sanitize() would.
                lsm::trace_bin_reader reader(path, iopts, &srep);
                if (iopts.on_error != lsm::on_error_policy::strict &&
                    !srep.clean()) {
                    std::cerr << "ingest: " << srep.summary() << "\n";
                }
                const lsm::seconds_t window = reader.window_length();
                lsm::characterize::record_source source =
                    [&](std::vector<lsm::log_record>& recs,
                        std::size_t max) {
                        std::size_t got;
                        do {
                            got = reader.read_chunk(recs, max);
                            std::erase_if(
                                recs, [&](const lsm::log_record& r) {
                                    return r.start < 0 || r.duration < 0 ||
                                           (window > 0 &&
                                            (r.start >= window ||
                                             r.end() > window));
                                });
                        } while (got > 0 && recs.empty());
                        return recs.size();
                    };
                lsm::characterize::sessionize_spill(
                    source, sopts, pool,
                    [&](const lsm::characterize::session& s) {
                        lsm::characterize::write_session_csv_row(out, s);
                        ++emitted;
                    });
            } else {
                lsm::trace str = lsm::read_trace_auto_file(
                    path, &pool, metrics, iopts, &srep);
                if (iopts.on_error != lsm::on_error_policy::strict &&
                    !srep.clean()) {
                    std::cerr << "ingest: " << srep.summary() << "\n";
                }
                lsm::sanitize(str);
                const auto sessions =
                    max_resident > 0
                        ? lsm::characterize::build_sessions_spill(
                              str, sopts, pool)
                        : lsm::characterize::build_sessions(
                              str, timeout, pool, metrics);
                for (const auto& s : sessions.sessions) {
                    lsm::characterize::write_session_csv_row(out, s);
                }
                emitted = sessions.sessions.size();
            }
            out.flush();
            if (!out) {
                std::cerr << "write failed: " << sessions_out << "\n";
                return 1;
            }
            std::cerr << "sessions written to " << sessions_out << " ("
                      << emitted << " sessions)\n";
        } catch (const std::exception& e) {
            std::cerr << "sessionization failed: " << e.what() << "\n";
            return 1;
        }
        dump_metrics();
        return 0;
    }

    lsm::trace tr;
    lsm::ingest_report ingest_rep;
    const std::string arg = argv[1];
    if (arg == "--demo") {
        const std::string path = demo_format == lsm::trace_format::bin
                                     ? "demo_trace.bin"
                                     : "demo_trace.csv";
        std::cout << "Simulating a demo world trace -> " << path << "\n";
        auto demo_cfg = lsm::world::world_config::scaled(0.02);
        demo_cfg.threads = threads;
        demo_cfg.metrics = metrics;
        auto world = lsm::world::simulate_world(demo_cfg, 7);
        lsm::write_trace_file(world.tr, path, demo_format);
        tr = std::move(world.tr);
    } else {
        try {
            tr = lsm::read_trace_auto_file(arg, &pool, metrics, iopts,
                                           &ingest_rep);
        } catch (const std::exception& e) {
            std::cerr << "failed to read trace: " << e.what() << "\n";
            return 1;
        }
        if (iopts.on_error != lsm::on_error_policy::strict &&
            !ingest_rep.clean()) {
            std::cerr << "ingest: " << ingest_rep.summary() << "\n";
        }
        if (argc > 2) timeout = std::atoll(argv[2]);
        if (timeout <= 0) {
            std::cerr << "session timeout must be positive\n";
            return 1;
        }
    }
    if (!quarantine_out.empty() &&
        lsm::obs::try_write_sink(
            "quarantine", quarantine_out,
            [&] { lsm::write_quarantine_file(ingest_rep, quarantine_out); },
            std::cerr)) {
        std::cerr << "quarantine written to " << quarantine_out << " ("
                  << ingest_rep.quarantine.size() << " bytes)\n";
    }

    // Both output modes run the library facade: sanitize, sessionize
    // (in memory or spilled) and the three layers.
    lsm::characterize::hierarchical_config hcfg;
    hcfg.session_timeout = timeout;
    hcfg.threads = threads;
    hcfg.max_resident_records = max_resident;
    hcfg.spill_dir = spill_dir;
    hcfg.metrics = metrics;
    const auto print_sanitization =
        [](const lsm::sanitize_report& sr) {
            std::cout << "Sanitization: kept " << sr.kept << ", dropped "
                      << sr.dropped_out_of_window << " out-of-window, "
                      << sr.dropped_negative << " malformed\n\n";
        };
    try {
        const auto rep =
            lsm::characterize::characterize_hierarchically(tr, hcfg);
        if (json) {
            lsm::characterize::write_report_json(rep, std::cout);
            std::cout << "\n";
        } else {
            print_sanitization(rep.sanitization);
            lsm::characterize::print_full_report(
                std::cout, tr, rep.client, rep.session, rep.transfer);
            std::cout << "\n== Session ON time distribution (Fig 11) ==\n";
            lsm::characterize::print_triptych(
                std::cout, "session ON times (s)", rep.session.on_times, 15);
            std::cout << "\n== Transfer length distribution (Fig 19) ==\n";
            lsm::characterize::print_triptych(
                std::cout, "transfer lengths (s)", rep.transfer.lengths, 15);
        }
        if (!sessions_out.empty()) {
            lsm::characterize::write_sessions_csv_file(rep.sessions,
                                                       sessions_out);
            std::cerr << "sessions written to " << sessions_out << "\n";
        }
    } catch (const lsm::characterize::sanitization_emptied_trace& e) {
        if (json) {
            std::cerr << "characterization failed: " << e.what() << "\n";
        } else {
            print_sanitization(e.report);
            std::cerr << "no records left after sanitization\n";
        }
        return 1;
    } catch (const std::exception& e) {
        std::cerr << "characterization failed: " << e.what() << "\n";
        return 1;
    }
    dump_metrics();
    return 0;
}
