#include "stats/sorted_sample.h"

#include <bit>
#include <cstdint>

#include "core/contracts.h"
#include "core/radix_sort.h"

namespace lsm::stats {

namespace {

/// Order-preserving key: unsigned key order equals double order, with
/// -0.0 just below +0.0.
std::uint64_t order_key(double x) {
    const auto b = std::bit_cast<std::uint64_t>(x);
    return (b >> 63) != 0 ? ~b : b | (1ULL << 63);
}

double key_value(std::uint64_t k) {
    return std::bit_cast<double>((k >> 63) != 0 ? k & ~(1ULL << 63) : ~k);
}

/// murmur3's 64-bit finalizer: integer-valued doubles differ only in
/// their top bits, so the slot index needs every bit mixed down.
std::uint64_t mix(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
}

struct key_count {
    std::uint64_t key;
    std::uint64_t count;  ///< 0 marks an empty slot
};

/// Linear-probing slot of `k` in a power-of-two table: its own slot, or
/// the empty one where it would go.
std::size_t probe(const std::vector<key_count>& table, std::uint64_t k) {
    const std::size_t mask = table.size() - 1;
    std::size_t i = mix(k) & mask;
    while (table[i].count != 0 && table[i].key != k) i = (i + 1) & mask;
    return i;
}

/// Counts each distinct key of `xs` in an open-addressing table kept at
/// most half full. Gives up (returns an empty vector) as soon as more
/// than `limit` distinct keys appear; otherwise returns the occupied
/// slots in ascending key order.
std::vector<key_count> count_distinct(std::span<const double> xs,
                                      std::size_t limit) {
    std::vector<key_count> table(64, key_count{0, 0});
    std::size_t used = 0;
    for (double x : xs) {
        const std::uint64_t k = order_key(x);
        std::size_t i = probe(table, k);
        if (table[i].count == 0) {
            if (used == limit) return {};
            if (2 * (used + 1) > table.size()) {
                std::vector<key_count> grown(2 * table.size(),
                                             key_count{0, 0});
                for (const key_count& e : table) {
                    if (e.count != 0) grown[probe(grown, e.key)] = e;
                }
                table.swap(grown);
                i = probe(table, k);
            }
            table[i].key = k;
            ++used;
        }
        ++table[i].count;
    }
    std::erase_if(table, [](const key_count& e) { return e.count == 0; });
    std::vector<key_count> scratch;
    radix_sort_by_u64(table, scratch,
                      [](const key_count& e) { return e.key; });
    return table;
}

}  // namespace

sorted_sample::sorted_sample(std::span<const double> xs) {
    LSM_EXPECTS(!xs.empty());
    std::size_t total = 0;
    // Runs arrive in ascending key order; -0.0 and +0.0 are two keys but
    // one value, so a run equal to the last one extends it.
    auto append = [&](double v, std::size_t c) {
        total += c;
        if (!values_.empty() && values_.back() == v) {
            ends_.back() = total;
            return;
        }
        values_.push_back(v);
        ends_.push_back(total);
    };

    const std::size_t limit = std::max<std::size_t>(4096, xs.size() / 16);
    const auto counted = count_distinct(xs, limit);
    if (!counted.empty()) {
        values_.reserve(counted.size());
        ends_.reserve(counted.size());
        for (const key_count& e : counted) append(key_value(e.key), e.count);
        return;
    }
    std::vector<std::uint64_t> keys(xs.size());
    std::transform(xs.begin(), xs.end(), keys.begin(), order_key);
    radix_sort_u64(keys);
    for (std::size_t i = 0; i < keys.size();) {
        std::size_t j = i + 1;
        while (j < keys.size() && keys[j] == keys[i]) ++j;
        append(key_value(keys[i]), j - i);
        i = j;
    }
}

double sorted_sample::at(std::size_t k) const {
    LSM_EXPECTS(k < size());
    const auto r = std::upper_bound(ends_.begin(), ends_.end(), k);
    return values_[static_cast<std::size_t>(r - ends_.begin())];
}

double sorted_sample::quantile(double q) const {
    LSM_EXPECTS(q >= 0.0 && q <= 1.0);
    return type7_quantile(size(), q, [&](std::size_t k) { return at(k); });
}

std::size_t sorted_sample::count_le(double x) const {
    const auto r = std::upper_bound(values_.begin(), values_.end(), x);
    return begin(static_cast<std::size_t>(r - values_.begin()));
}

std::size_t sorted_sample::count_lt(double x) const {
    const auto r = std::lower_bound(values_.begin(), values_.end(), x);
    return begin(static_cast<std::size_t>(r - values_.begin()));
}

}  // namespace lsm::stats
