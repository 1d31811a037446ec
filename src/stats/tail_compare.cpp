#include "stats/tail_compare.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/contracts.h"
#include "stats/distributions.h"
#include "stats/ks.h"
#include "stats/sorted_sample.h"

namespace lsm::stats {

const char* to_string(tail_family f) {
    return f == tail_family::lognormal ? "lognormal" : "pareto";
}

tail_comparison compare_tail_models(std::span<const double> xs,
                                    double tail_fraction) {
    LSM_EXPECTS(xs.size() >= 50);
    LSM_EXPECTS(tail_fraction > 0.0 && tail_fraction <= 0.5);

    tail_comparison cmp;
    cmp.lognormal = fit_lognormal_mle(xs);
    cmp.ks_lognormal = cmp.lognormal.ks;

    const sorted_sample sorted(xs);
    const auto tail_count = std::max<std::size_t>(
        25, static_cast<std::size_t>(
                static_cast<double>(xs.size()) * tail_fraction));
    LSM_EXPECTS(tail_count < sorted.size());

    // The tail_count largest values, ascending.
    std::vector<double> tail(tail_count);
    for (std::size_t i = 0; i < tail_count; ++i) {
        tail[i] = sorted.at(sorted.size() - tail_count + i);
    }
    cmp.pareto_xmin = tail.front();
    LSM_EXPECTS(cmp.pareto_xmin > 0.0);
    cmp.pareto_alpha = hill_tail_index(xs, tail_count);

    const pareto_dist pd(cmp.pareto_alpha, cmp.pareto_xmin);
    cmp.ks_pareto_tail =
        ks_distance(tail, [&](double x) { return pd.cdf(x); });

    // Lognormal restricted to the tail: conditional CDF
    // F(x | X >= xmin) = (F(x) - F(xmin)) / (1 - F(xmin)).
    const lognormal_dist ld = cmp.lognormal.dist();
    const double f_xmin = ld.cdf(cmp.pareto_xmin);
    LSM_EXPECTS(f_xmin < 1.0);
    cmp.ks_lognormal_tail = ks_distance(tail, [&](double x) {
        return (ld.cdf(x) - f_xmin) / (1.0 - f_xmin);
    });

    cmp.winner = cmp.ks_lognormal_tail <= cmp.ks_pareto_tail
                     ? tail_family::lognormal
                     : tail_family::pareto;
    return cmp;
}

}  // namespace lsm::stats
