// Paper-scale end-to-end benchmark driver. run.py starts one process per
// step, so that a measured step's CPU time and peak RSS (taken by the
// parent from wait4) hold nothing but that step:
//
//   lsm_e2e setup <csv|bin> <scale> <seed> <reps> <out>
//       Generates the GISMO live workload `reps` times and writes it to
//       <out> each time (bin = lsm-trace-bin-v2, compressed). Prints the
//       per-rep set-up, generation and write times.
//   lsm_e2e paper <threads> <in> <report.json> [--traced]
//       Reads the trace, characterizes it and writes the JSON report.
//       Untraced it calls the characterize_hierarchically facade; traced
//       it runs the facade's steps one by one and times each call.
//   lsm_e2e codec <threads> <in.csv> <tmp.bin> <out.csv> [--traced]
//       CSV -> bin-v2 -> CSV round trip through the public codecs.
//
// Every step prints one JSON object on stdout and exits 0, or prints the
// error on stderr and exits 1.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "characterize/hierarchical.h"
#include "characterize/report_json.h"
#include "core/parallel.h"
#include "core/trace_io.h"
#include "core/trace_io_bin.h"
#include "gismo/live_generator.h"
#include "stats/timeseries.h"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Accumulates `"key": value` pairs and prints them as one JSON object.
class json_line {
public:
    void add(const std::string& key, double v) {
        std::ostringstream s;
        s << std::setprecision(17) << v;
        fields_.emplace_back(key, s.str());
    }
    void add(const std::string& key, const std::vector<double>& vs) {
        std::ostringstream s;
        s << std::setprecision(17) << '[';
        for (std::size_t i = 0; i < vs.size(); ++i) {
            s << (i == 0 ? "" : ",") << vs[i];
        }
        s << ']';
        fields_.emplace_back(key, s.str());
    }
    void print() const {
        std::cout << '{';
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            std::cout << (i == 0 ? "" : ", ") << '"' << fields_[i].first
                      << "\": " << fields_[i].second;
        }
        std::cout << "}\n";
    }

private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/// Times calls into the library when tracing is on; a pass-through when
/// it is off. The top-level timed calls sum to `attributed`; the traced
/// total less that sum is time that no timed call accounts for.
class spans {
public:
    explicit spans(bool on) : on_(on) {}

    template <typename F>
    decltype(auto) time(const char* name, F&& f) {
        if (!on_) return f();
        struct stop {
            spans& s;
            const char* name;
            clock_type::time_point t0 = clock_type::now();
            ~stop() {
                s.last_ = seconds_since(t0);
                s.out.add(name, s.last_);
                s.attributed_ += s.last_;
            }
        } guard{*this, name};
        return f();
    }

    /// Throughput of the call timed last.
    void rate(const char* name, double amount) {
        if (on_) out.add(name, amount / last_);
    }

    /// Adds the traced total and its unattributed share.
    void finish(double total) {
        if (!on_) return;
        out.add("bench.traced_total_s", total);
        out.add("bench.unattributed_s", total - attributed_);
    }

    json_line out;

private:
    bool on_;
    double last_ = 0.0;
    double attributed_ = 0.0;
};

double file_mb(const std::string& path) {
    return static_cast<double>(std::filesystem::file_size(path)) / 1e6;
}

bool is_bin_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::string prefix(16, '\0');
    in.read(prefix.data(), static_cast<std::streamsize>(prefix.size()));
    prefix.resize(static_cast<std::size_t>(in.gcount()));
    return lsm::buffer_is_trace_bin(prefix);
}

std::uint64_t write_report(const lsm::characterize::hierarchical_report& rep,
                           const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    lsm::characterize::write_report_json(rep, out);
    out << '\n';
    out.close();
    if (!out) throw std::runtime_error("cannot write report " + path);
    return std::filesystem::file_size(path);
}

int run_setup(char** argv) {
    const lsm::trace_format fmt = lsm::parse_trace_format(argv[0]);
    const double scale = std::stod(argv[1]);
    const std::uint64_t seed = std::stoull(argv[2]);
    const int reps = std::stoi(argv[3]);
    const std::string out = argv[4];
    if (reps < 1) throw std::invalid_argument("reps must be >= 1");

    std::vector<double> setup_s;
    std::vector<double> generate_s;
    std::vector<double> write_s;
    double written_mb = 0.0;  // the file the timed writes produced
    lsm::trace tr;
    const lsm::trace_bin_write_options compressed{.compress = true};
    for (int i = 0; i < reps; ++i) {
        tr = lsm::trace{};  // free the previous rep's trace outside the clock
        const auto t0 = clock_type::now();
        auto cfg = lsm::gismo::live_config::scaled(scale);
        cfg.threads = 4;
        tr = lsm::gismo::generate_live_workload(cfg, seed);
        generate_s.push_back(seconds_since(t0));
        lsm::write_trace_file(tr, out, fmt, compressed);
        setup_s.push_back(seconds_since(t0));
        write_s.push_back(setup_s.back() - generate_s.back());
        written_mb = file_mb(out);
    }
    if (fmt == lsm::trace_format::bin) {
        // CSV keeps 6 significant digits of the float fields. Rewriting
        // the binary input from the CSV text of the same records makes
        // both formats hold equal records, so their reports must match.
        // Not timed: it serves the output check, not the workload.
        std::ostringstream csv;
        lsm::write_trace_csv(tr, csv);
        lsm::thread_pool pool(4);
        tr = lsm::read_trace_csv_buffer(csv.view(), &pool);
        lsm::write_trace_file(tr, out, fmt, compressed);
    }
    json_line j;
    j.add("setup_s", setup_s);
    j.add("generate_s", generate_s);
    j.add("write_s", write_s);
    j.add("written_mb", written_mb);
    j.add("transfers", static_cast<double>(tr.size()));
    j.print();
    return 0;
}

/// The north-star run: input file -> characterization -> JSON report.
int run_paper(unsigned threads, const std::string& in,
              const std::string& report_path, bool traced) {
    namespace ch = lsm::characterize;
    ch::hierarchical_config cfg;
    cfg.threads = threads;
    spans sp(traced);
    json_line& j = sp.out;

    const auto t0 = clock_type::now();
    if (!traced) {
        lsm::trace t;
        {
            lsm::thread_pool pool(threads);
            t = lsm::read_trace_auto_file(in, &pool);
        }
        const std::size_t records_in = t.size();
        const auto rep = ch::characterize_hierarchically(t, cfg);
        write_report(rep, report_path);
        j.add("wall_s", seconds_since(t0));
        j.add("records", static_cast<double>(records_in));
        j.print();
        return 0;
    }

    // The facade's sequence, one timed call per layer entry point.
    lsm::thread_pool pool(threads);
    lsm::ingest_report ingest;
    const bool bin = is_bin_file(in);
    lsm::trace t = sp.time(bin ? "core.bin_decode_s" : "core.csv_decode_s", [&] {
        return lsm::read_trace_auto_file(in, &pool, nullptr, {}, &ingest);
    });
    sp.rate(bin ? "core.bin_decode_mb_s" : "core.csv_decode_mb_s", file_mb(in));
    const std::size_t records_in = t.size();
    ch::hierarchical_report rep;
    rep.sanitization = sp.time("core.sanitize_s", [&] { return lsm::sanitize(t); });
    if (t.empty()) throw ch::sanitization_emptied_trace(rep.sanitization);
    rep.summary = sp.time("core.summary_s", [&] { return lsm::summarize(t, pool); });
    rep.sessions = sp.time("characterize.sessionize_s", [&] {
        return ch::build_sessions(t, cfg.session_timeout, pool);
    });
    sp.rate("characterize.sessionize_records_s", static_cast<double>(t.size()));
    double client_s = 0.0;
    double session_s = 0.0;
    double transfer_s = 0.0;
    sp.time("characterize.layers_s", [&] {
        lsm::parallel_invoke(
            pool,
            [&] {
                const auto c0 = clock_type::now();
                rep.client = ch::analyze_client_layer(t, rep.sessions, cfg.client);
                client_s = seconds_since(c0);
            },
            [&] {
                const auto s0 = clock_type::now();
                rep.session = ch::analyze_session_layer(rep.sessions, cfg.session);
                session_s = seconds_since(s0);
            },
            [&] {
                const auto x0 = clock_type::now();
                rep.transfer = ch::analyze_transfer_layer(t, cfg.transfer);
                transfer_s = seconds_since(x0);
            });
    });
    const auto report_bytes = sp.time("characterize.report_json_s",
                                      [&] { return write_report(rep, report_path); });
    const double total = seconds_since(t0);
    sp.finish(total);

    // Fig 8 ACF again, outside the traced total, against the report's copy.
    const auto a0 = clock_type::now();
    const auto acf = lsm::stats::autocorrelation(rep.client.concurrency_series,
                                                 cfg.client.acf_max_lag);
    const double acf_s = seconds_since(a0);
    const auto& want = rep.client.concurrency_acf;
    const bool acf_match =
        acf.size() == want.size() &&
        std::memcmp(acf.data(), want.data(), acf.size() * sizeof(double)) == 0;

    j.add("characterize.client_layer_s", client_s);
    j.add("characterize.session_layer_s", session_s);
    j.add("characterize.transfer_layer_s", transfer_s);
    j.add("characterize.sessions", static_cast<double>(rep.sessions.sessions.size()));
    j.add("characterize.report_bytes", static_cast<double>(report_bytes));
    j.add("core.records_in", static_cast<double>(records_in));
    j.add("core.ingest_errors", static_cast<double>(ingest.errors_total));
    j.add("core.sanitize_dropped",
          static_cast<double>(rep.sanitization.dropped_out_of_window +
                              rep.sanitization.dropped_negative));
    j.add("stats.acf_s", acf_s);
    j.add("stats.acf_lags", static_cast<double>(cfg.client.acf_max_lag));
    j.add("stats.acf_points", static_cast<double>(rep.client.concurrency_series.size()));
    j.add("acf_match", acf_match ? 1.0 : 0.0);
    j.add("wall_s", total);
    j.add("records", static_cast<double>(records_in));
    j.print();
    return 0;
}

/// CSV -> bin-v2 -> CSV through the public codecs; out.csv must equal in.
int run_codec(unsigned threads, const std::string& in, const std::string& bin_path,
              const std::string& out_path, bool traced) {
    spans sp(traced);
    const auto t0 = clock_type::now();
    lsm::thread_pool pool(threads);
    lsm::ingest_report ingest;
    const lsm::trace t = sp.time("core.csv_decode_s", [&] {
        return lsm::read_trace_auto_file(in, &pool, nullptr, {}, &ingest);
    });
    sp.rate("core.csv_decode_mb_s", file_mb(in));
    sp.time("core.bin_encode_s", [&] {
        lsm::write_trace_bin_file(t, bin_path,
                                  lsm::trace_bin_write_options{.compress = true});
    });
    sp.rate("core.bin_encode_mb_s", file_mb(bin_path));
    const lsm::trace back = sp.time("core.bin_decode_s", [&] {
        return lsm::read_trace_auto_file(bin_path, &pool, nullptr, {}, &ingest);
    });
    sp.rate("core.bin_decode_mb_s", file_mb(bin_path));
    sp.time("core.csv_encode_s", [&] { lsm::write_trace_csv_file(back, out_path); });
    sp.rate("core.csv_encode_mb_s", file_mb(out_path));
    const double total = seconds_since(t0);
    sp.finish(total);

    json_line& j = sp.out;
    if (traced) {
        j.add("core.records_in", static_cast<double>(t.size()));
        j.add("core.ingest_errors", static_cast<double>(ingest.errors_total));
    }
    j.add("wall_s", total);
    j.add("records", static_cast<double>(t.size()));
    j.print();
    return 0;
}

int usage() {
    std::cerr << "usage: lsm_e2e setup <csv|bin> <scale> <seed> <reps> <out>\n"
                 "       lsm_e2e paper <threads> <in> <report.json> [--traced]\n"
                 "       lsm_e2e codec <threads> <in.csv> <tmp.bin> <out.csv>"
                 " [--traced]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    const bool traced = std::strcmp(argv[argc - 1], "--traced") == 0;
    const int nargs = argc - 2 - (traced ? 1 : 0);
    try {
        if (cmd == "setup" && nargs == 5) return run_setup(argv + 2);
        if (cmd == "paper" && nargs == 3) {
            return run_paper(static_cast<unsigned>(std::stoul(argv[2])), argv[3],
                             argv[4], traced);
        }
        if (cmd == "codec" && nargs == 4) {
            return run_codec(static_cast<unsigned>(std::stoul(argv[2])), argv[3],
                             argv[4], argv[5], traced);
        }
    } catch (const std::exception& e) {
        std::cerr << "lsm_e2e " << cmd << ": " << e.what() << "\n";
        return 1;
    }
    return usage();
}
