// One independent part of a layer analysis. Each layer splits into the
// parts it already contains (client: concurrency, interarrivals,
// interest, diversity; ...); a part is internally sequential and writes
// only its own fields of its layer's report, so parts of every layer may
// run concurrently and the report stays bit-identical for any schedule.
// The facade (characterize/hierarchical.h) runs all of them as one flat
// task list on its pool; the one-call analyze_*_layer entry points run
// the same parts in order on the calling thread (DESIGN.md §6, "The
// layer stage").
#pragma once

#include <functional>
#include <string_view>
#include <vector>

namespace lsm::characterize {

struct layer_task {
    /// Part name, the last segment of its span
    /// `characterize/layers/<layer>/<name>`.
    std::string_view name;
    std::function<void()> run;
};

/// Runs `tasks` in order on the calling thread.
inline void run_in_order(const std::vector<layer_task>& tasks) {
    for (const layer_task& task : tasks) task.run();
}

}  // namespace lsm::characterize
