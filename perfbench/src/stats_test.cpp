// Unit test for the percentile helpers in stats.hpp.
//
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target stats_test
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g want %.12g\n", what, got, want);
    ++failures;
  }
}

void expect_rung(std::size_t n, std::optional<double> want) {
  const std::optional<double> got = perfbench::highest_supported_percentile(n);
  if (got != want) {
    std::printf("FAIL highest_supported_percentile(%zu): got %s%g want %s%g\n",
                n, got ? "" : "none/", got.value_or(0.0), want ? "" : "none/",
                want.value_or(0.0));
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::percentile;

  // Empty and single-sample sets.
  expect_near(percentile({}, 50), 0.0, "empty");
  expect_near(percentile({7.0}, 99), 7.0, "single");

  // Linear interpolation between closest ranks, order-independent.
  const std::vector<double> four = {4.0, 1.0, 3.0, 2.0};
  expect_near(percentile(four, 0), 1.0, "p0");
  expect_near(percentile(four, 100), 4.0, "p100");
  expect_near(percentile(four, 50), 2.5, "p50 even count");
  expect_near(percentile(four, 25), 1.75, "p25");
  expect_near(perfbench::median({5.0, 1.0, 3.0}), 3.0, "median odd count");

  // 1..101: the p-th percentile is exactly 1 + p.
  std::vector<double> ramp;
  for (int i = 1; i <= 101; ++i) ramp.push_back(i);
  expect_near(percentile(ramp, 90), 91.0, "ramp p90");
  expect_near(percentile(ramp, 99), 100.0, "ramp p99");
  expect_near(percentile(ramp, 150), 101.0, "p clamps above 100");

  // Highest percentile with at least ten samples beyond it.
  expect_rung(0, std::nullopt);
  expect_rung(19, std::nullopt);  // 9.5 beyond the median
  expect_rung(20, 50.0);
  expect_rung(99, 50.0);  // 9.9 beyond p90
  expect_rung(100, 90.0);
  expect_rung(999, 90.0);
  expect_rung(1000, 99.0);
  expect_rung(9999, 99.0);
  expect_rung(10000, 99.9);

  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
