#include "core/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/rng.h"

namespace lsm {
namespace {

TEST(RadixSort, SortsRandomU64) {
    rng r(1);
    std::vector<std::uint64_t> v;
    for (int i = 0; i < 5000; ++i) v.push_back(r.next_u64());
    std::vector<std::uint64_t> expect = v;
    std::sort(expect.begin(), expect.end());
    radix_sort_u64(v);
    EXPECT_EQ(v, expect);
}

TEST(RadixSort, SortsSmallRangeU64) {
    // Dense small keys exercise the trivial-plane skipping: only the low
    // byte plane permutes anything.
    rng r(2);
    std::vector<std::uint64_t> v;
    for (int i = 0; i < 5000; ++i) v.push_back(r.next_u64() % 200);
    std::vector<std::uint64_t> expect = v;
    std::sort(expect.begin(), expect.end());
    radix_sort_u64(v);
    EXPECT_EQ(v, expect);
}

TEST(RadixSort, SortsSignedWithNegatives) {
    rng r(3);
    std::vector<std::int64_t> v;
    for (int i = 0; i < 5000; ++i) {
        v.push_back(static_cast<std::int64_t>(r.next_u64()));
    }
    v.push_back(std::numeric_limits<std::int64_t>::min());
    v.push_back(std::numeric_limits<std::int64_t>::max());
    v.push_back(0);
    v.push_back(-1);
    std::vector<std::int64_t> expect = v;
    std::sort(expect.begin(), expect.end());
    radix_sort_i64(v);
    EXPECT_EQ(v, expect);
}

TEST(RadixSort, EmptyAndSingleton) {
    std::vector<std::uint64_t> empty;
    radix_sort_u64(empty);
    EXPECT_TRUE(empty.empty());
    std::vector<std::uint64_t> one = {42};
    radix_sort_u64(one);
    EXPECT_EQ(one, (std::vector<std::uint64_t>{42}));
}

TEST(RadixSort, IsStable) {
    // Elements carry a payload; equal keys must keep insertion order.
    struct elem {
        std::uint64_t key;
        std::uint32_t seq;
    };
    rng r(4);
    std::vector<elem> v;
    for (std::uint32_t i = 0; i < 4000; ++i) {
        v.push_back({r.next_u64() % 16, i});
    }
    std::vector<elem> scratch;
    radix_sort_by_u64(v, scratch, [](const elem& e) { return e.key; });
    for (std::size_t i = 1; i < v.size(); ++i) {
        ASSERT_LE(v[i - 1].key, v[i].key);
        if (v[i - 1].key == v[i].key) {
            ASSERT_LT(v[i - 1].seq, v[i].seq);
        }
    }
}

TEST(RadixSort, StablePassesComposeToTupleOrder) {
    // Sorting by the low word and then by the high word, both stable,
    // gives the (hi, lo) tuple order with ties in input order.
    struct elem {
        std::int64_t hi;
        std::uint64_t lo;
        int input;
    };
    rng r(5);
    std::vector<elem> v;
    for (int i = 0; i < 4000; ++i) {
        v.push_back({static_cast<std::int64_t>(r.next_u64() % 64) - 32,
                     r.next_u64() % 16, i});
    }
    std::vector<elem> expect = v;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const elem& a, const elem& b) {
                         if (a.hi != b.hi) return a.hi < b.hi;
                         return a.lo < b.lo;
                     });
    std::vector<elem> scratch(v.size());
    radix_sort_by_u64(std::span<elem>(v), std::span<elem>(scratch),
                      [](const elem& e) { return e.lo; });
    radix_sort_by_u64(std::span<elem>(v), std::span<elem>(scratch),
                      [](const elem& e) { return radix_key_i64(e.hi); });
    for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_EQ(v[i].input, expect[i].input) << i;
    }
}

}  // namespace
}  // namespace lsm
