// LSD radix sorting for the ingest and characterization hot paths.
//
// The pipeline's dominant sorts order records by small-range integer keys
// (client id, start second, duration), where a comparison sort pays
// n log n cache-missing comparator calls. The helpers here run stable
// byte-wise counting-sort passes instead, and skip any pass whose byte is
// constant across the whole key set — on real traces (starts bounded by
// the window, durations by a day, dense client ids) only a handful of the
// nominal passes execute, so the sort is a few linear sweeps.
//
// All sorts are stable, so multi-word keys compose: sorting by the least
// significant word first and the most significant word last yields the
// full lexicographic (hi, lo) order, exactly like a tuple comparator.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace lsm {

/// Order-preserving mapping of a signed 64-bit value onto an unsigned
/// key: flips the sign bit, so negative values sort before positive ones.
inline std::uint64_t radix_key_i64(std::int64_t v) {
    return static_cast<std::uint64_t>(v) ^ (1ULL << 63);
}

/// Stable LSD radix sort of `v` by the unsigned 64-bit key `key_of(elem)`,
/// using `scratch` (at least v.size() elements) as the ping-pong buffer.
/// Byte planes on which every key agrees are skipped entirely.
template <typename T, typename KeyFn>
void radix_sort_by_u64(std::span<T> v, std::span<T> scratch, KeyFn key_of) {
    const std::size_t n = v.size();
    if (n < 2) return;

    // One sweep histograms all eight byte planes at once.
    std::uint32_t hist[8][256] = {};
    for (const T& e : v) {
        const std::uint64_t k = key_of(e);
        for (int b = 0; b < 8; ++b) ++hist[b][(k >> (8 * b)) & 0xFF];
    }

    T* src = v.data();
    T* dst = scratch.data();
    for (int b = 0; b < 8; ++b) {
        // A plane where one byte value covers every key permutes nothing.
        bool trivial = false;
        for (std::size_t j = 0; j < 256; ++j) {
            if (hist[b][j] == n) {
                trivial = true;
                break;
            }
        }
        if (trivial) continue;
        std::uint32_t offs[256];
        std::uint32_t run = 0;
        for (std::size_t j = 0; j < 256; ++j) {
            offs[j] = run;
            run += hist[b][j];
        }
        const int shift = 8 * b;
        for (std::size_t i = 0; i < n; ++i) {
            dst[offs[(key_of(src[i]) >> shift) & 0xFF]++] = src[i];
        }
        std::swap(src, dst);
    }
    if (src != v.data()) std::copy(src, src + n, v.data());
}

/// Vector flavor: `scratch` is resized as needed and may be reused
/// across calls.
template <typename T, typename KeyFn>
void radix_sort_by_u64(std::vector<T>& v, std::vector<T>& scratch,
                       KeyFn key_of) {
    if (v.size() < 2) return;
    scratch.resize(v.size());
    radix_sort_by_u64(std::span<T>(v), std::span<T>(scratch), key_of);
}

/// Sorts a vector of unsigned 64-bit values ascending.
inline void radix_sort_u64(std::vector<std::uint64_t>& v) {
    std::vector<std::uint64_t> scratch;
    radix_sort_by_u64(v, scratch, [](std::uint64_t x) { return x; });
}

/// Sorts a vector of signed 64-bit values ascending.
inline void radix_sort_i64(std::vector<std::int64_t>& v) {
    std::vector<std::int64_t> scratch;
    radix_sort_by_u64(v, scratch,
                      [](std::int64_t x) { return radix_key_i64(x); });
}

}  // namespace lsm
