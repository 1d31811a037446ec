// Golden `--json` report: the full characterization pipeline on a
// fixed-seed, reduced-scale GISMO trace must render byte-for-byte the
// report committed in tests/integration/golden/. The trace goes through
// both file formats (CSV, then bin-v2 written from the CSV-read trace,
// since CSV keeps six significant digits) and is characterized at 1, 2,
// 3 and 4 threads, so one file pins every fit, KS distance and summary
// statistic across formats, thread counts and the SWAR/scalar decode
// kernels (the scalar build runs the same test).
//
// When a change is meant to move the report, the test leaves the new
// bytes next to the test binary as report_golden.actual.json; copy that
// file over the golden one in the same change.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "characterize/hierarchical.h"
#include "characterize/report_json.h"
#include "core/parallel.h"
#include "core/trace_io.h"
#include "core/trace_io_bin.h"
#include "gismo/live_generator.h"

#ifndef LSM_GOLDEN_DIR
#error "LSM_GOLDEN_DIR must point at tests/integration/golden"
#endif

namespace lsm {
namespace {

constexpr const char* k_golden_file =
    "report_gismo_scale0.02_7d_seed2002.json";

std::string read_golden() {
    std::ifstream in(std::string(LSM_GOLDEN_DIR) + "/" + k_golden_file,
                     std::ios::binary);
    EXPECT_TRUE(in) << "missing golden file " << k_golden_file;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::string report_bytes(trace t, unsigned threads) {
    characterize::hierarchical_config cfg;
    cfg.threads = threads;
    const auto rep = characterize::characterize_hierarchically(t, cfg);
    return characterize::report_to_json(rep);
}

TEST(ReportGolden, CsvAndBinV2AtOneToFourThreads) {
    gismo::live_config gen = gismo::live_config::scaled(0.02);
    gen.window = 7 * seconds_per_day;
    const trace generated = gismo::generate_live_workload(gen, 2002);
    ASSERT_GT(generated.size(), 1000U);

    std::ostringstream csv;
    write_trace_csv(generated, csv);
    thread_pool pool(4);
    const trace from_csv = read_trace_csv_buffer(csv.str(), &pool);

    std::ostringstream bin;
    trace_bin_write_options wopts;
    wopts.compress = true;
    write_trace_bin(from_csv, bin, wopts);
    const trace from_bin = read_trace_bin_buffer(bin.str());

    const std::string golden = read_golden();
    for (const auto& [format, tr] :
         {std::pair<const char*, const trace*>{"csv", &from_csv},
          {"bin-v2", &from_bin}}) {
        for (unsigned threads : {1U, 2U, 3U, 4U}) {
            SCOPED_TRACE(std::string(format) + " threads=" +
                         std::to_string(threads));
            const std::string got = report_bytes(*tr, threads);
            if (got != golden) {
                std::ofstream("report_golden.actual.json",
                              std::ios::binary)
                    << got;
            }
            EXPECT_EQ(got, golden);
        }
    }
}

}  // namespace
}  // namespace lsm
