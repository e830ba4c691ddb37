// Exact and log-space counting used by §II of the paper.
//
// The paper sizes the partition-sharing search space with binomial
// coefficients ("balls in bins" wall placement) and Stirling numbers of the
// second kind (grouping programs into non-empty shared partitions):
//
//   S1 = { npr \atop nc }                                     (Eq. 1)
//   S2 = Σ_{npa=1..npr} { npr \atop npa } · C(C+npa-1, npa-1)  (Eq. 2)
//   S3 = C(C+npr-1, npr-1)                                     (Eq. 3)
//
// For the paper's headline numbers (npr = 4, C = 131072) the results fit in
// 64 bits; we compute with 128-bit intermediates and report overflow
// explicitly instead of wrapping.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace ocps {

/// Exact binomial coefficient C(n, k). Returns nullopt on unsigned 128-bit
/// overflow (never for the paper's parameters).
std::optional<unsigned __int128> binomial128(std::uint64_t n, std::uint64_t k);

/// Binomial coefficient as a double (exact until ~2^53, then best-effort).
double binomial_double(std::uint64_t n, std::uint64_t k);

/// Exact Stirling number of the second kind { n \atop k } via the triangular
/// recurrence. Returns nullopt on overflow. n, k <= 64 is plenty here.
std::optional<unsigned __int128> stirling2_128(std::uint64_t n, std::uint64_t k);

/// Formats an unsigned 128-bit integer in base 10.
struct U128 { unsigned __int128 value; };
std::string to_string_u128(unsigned __int128 v);

/// §II Eq. 1: number of ways to share nc caches among npr programs with
/// every cache used (Stirling number of the second kind).
std::optional<unsigned __int128> search_space_sharing(std::uint64_t npr,
                                                      std::uint64_t nc);

/// §II Eq. 2: size of the partition-sharing search space for one cache of
/// C units shared by npr programs.
std::optional<unsigned __int128> search_space_partition_sharing(
    std::uint64_t npr, std::uint64_t cache_units);

/// §II Eq. 3: size of the partitioning-only search space.
std::optional<unsigned __int128> search_space_partitioning(
    std::uint64_t npr, std::uint64_t cache_units);

}  // namespace ocps
