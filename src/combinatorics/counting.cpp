#include "combinatorics/counting.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace ocps {

namespace {

using u128 = unsigned __int128;
constexpr u128 kU128Max = ~static_cast<u128>(0);

// Multiplies with overflow detection.
std::optional<u128> mul_checked(u128 a, u128 b) {
  if (a == 0 || b == 0) return static_cast<u128>(0);
  if (a > kU128Max / b) return std::nullopt;
  return a * b;
}

std::optional<u128> add_checked(u128 a, u128 b) {
  if (a > kU128Max - b) return std::nullopt;
  return a + b;
}

}  // namespace

std::optional<unsigned __int128> binomial128(std::uint64_t n, std::uint64_t k) {
  if (k > n) return static_cast<u128>(0);
  k = std::min<std::uint64_t>(k, n - k);
  u128 result = 1;
  // Multiply then divide step-by-step; C(n, i) is always integral so the
  // division by (i+1) after multiplying by (n-k+i+1) is exact.
  for (std::uint64_t i = 0; i < k; ++i) {
    auto prod = mul_checked(result, static_cast<u128>(n - k + i + 1));
    if (!prod) return std::nullopt;
    result = *prod / static_cast<u128>(i + 1);
  }
  return result;
}

double binomial_double(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0.0;
  k = std::min<std::uint64_t>(k, n - k);
  double result = 1.0;
  for (std::uint64_t i = 0; i < k; ++i) {
    result *= static_cast<double>(n - k + i + 1);
    result /= static_cast<double>(i + 1);
  }
  return result;
}

std::optional<unsigned __int128> stirling2_128(std::uint64_t n,
                                               std::uint64_t k) {
  if (k > n) return static_cast<u128>(0);
  if (n == 0) return static_cast<u128>(1);  // {0 \atop 0} = 1
  if (k == 0) return static_cast<u128>(0);
  // Triangular recurrence { n \atop k } = k { n-1 \atop k } + { n-1 \atop k-1 }.
  std::vector<u128> row(k + 1, 0);
  row[0] = 1;  // row for n = 0
  for (std::uint64_t i = 1; i <= n; ++i) {
    std::uint64_t hi = std::min<std::uint64_t>(i, k);
    for (std::uint64_t j = hi; j >= 1; --j) {
      auto scaled = mul_checked(static_cast<u128>(j), row[j]);
      if (!scaled) return std::nullopt;
      auto sum = add_checked(*scaled, row[j - 1]);
      if (!sum) return std::nullopt;
      row[j] = *sum;
    }
    row[0] = 0;  // {i \atop 0} = 0 for i >= 1
  }
  return row[k];
}

std::string to_string_u128(unsigned __int128 v) {
  if (v == 0) return "0";
  std::string digits;
  while (v > 0) {
    digits.push_back(static_cast<char>('0' + static_cast<int>(v % 10)));
    v /= 10;
  }
  return std::string(digits.rbegin(), digits.rend());
}

std::optional<unsigned __int128> search_space_sharing(std::uint64_t npr,
                                                      std::uint64_t nc) {
  return stirling2_128(npr, nc);
}

std::optional<unsigned __int128> search_space_partition_sharing(
    std::uint64_t npr, std::uint64_t cache_units) {
  u128 total = 0;
  for (std::uint64_t npa = 1; npa <= npr; ++npa) {
    auto groups = stirling2_128(npr, npa);
    auto walls = binomial128(cache_units + npa - 1, npa - 1);
    if (!groups || !walls) return std::nullopt;
    auto term = mul_checked(*groups, *walls);
    if (!term) return std::nullopt;
    auto sum = add_checked(total, *term);
    if (!sum) return std::nullopt;
    total = *sum;
  }
  return total;
}

std::optional<unsigned __int128> search_space_partitioning(
    std::uint64_t npr, std::uint64_t cache_units) {
  OCPS_CHECK(npr >= 1, "need at least one program");
  return binomial128(cache_units + npr - 1, npr - 1);
}

}  // namespace ocps
