// Sample statistics for the benchmark's reports.
//
// Percentiles use linear interpolation between closest ranks (the same
// rule as Python's statistics.quantiles(method="inclusive") and numpy's
// default), so a reader can recompute any reported figure from the raw
// samples.  A tail percentile is only meaningful when enough samples lie
// beyond it; highest_supported_percentile() picks the highest rung of a
// fixed ladder that has at least `min_beyond` samples past it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

// The p-th percentile (0 <= p <= 100) of `samples`; 0 for an empty set.
[[nodiscard]] inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples.front();
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

// Percentile rungs a report may quote, lowest first.
inline constexpr double kPercentileLadder[] = {50.0, 90.0, 99.0, 99.9};

// The highest rung p with at least `min_beyond` of `n` samples above it,
// i.e. n * (1 - p/100) >= min_beyond; nullopt when even the median lacks
// that many.
[[nodiscard]] inline std::optional<double> highest_supported_percentile(
    std::size_t n, std::size_t min_beyond = 10) {
  std::optional<double> best;
  for (const double p : kPercentileLadder) {
    // Compare in integer thousandths so 99.9 has no rounding slack.
    const auto beyond_x1000 =
        static_cast<long long>(n) *
        (100'000 - static_cast<long long>(std::llround(p * 1000.0)));
    if (beyond_x1000 >= static_cast<long long>(min_beyond) * 100'000) best = p;
  }
  return best;
}

}  // namespace perfbench
