// Experiment E1 (Theorem 2, figure 1): the halted global state S_h equals
// the recorded global state S_r on identical deterministic executions.
//
// For each topology size, the same seeded execution is run twice: once with
// a C&L recording wave initiated at time T (the program keeps running), and
// once with a halting wave initiated at time T.  The two global states are
// compared with the Theorem-2 equivalence predicate, and the table reports
// the in-flight messages captured by each.
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"

namespace ddbg::bench {
namespace {

struct EquivalenceResult {
  bool equal = false;
  std::size_t channel_messages_recorded = 0;
  std::size_t channel_messages_halted = 0;
  double record_latency_ms = 0;
  double halt_latency_ms = 0;
};

EquivalenceResult run_pair(std::uint32_t n, std::uint64_t seed) {
  const Duration point = Duration::millis(50);
  Rng topo_rng(seed);
  const Topology topology =
      Topology::random_strongly_connected(n, n, topo_rng);

  EquivalenceResult result;
  GlobalState recorded;
  // Chaos knobs: with DDBG_FAULT_PLAN set, both runs face the identical
  // seeded adversary — Theorem 2 must survive the lossy transport too.
  const std::shared_ptr<FaultPlan> faults = FaultPlan::from_env();
  {
    HarnessConfig config;
    config.seed = seed;
    config.faults = faults;
    SimDebugHarness harness(topology, make_gossip(n, GossipConfig{}),
                            std::move(config));
    harness.sim().run_for(point);
    const TimePoint start = harness.sim().now();
    auto wave = harness.session().take_snapshot(Duration::seconds(60));
    if (!wave.has_value()) return result;
    recorded = wave->state;
    result.record_latency_ms = (wave->completed_at - start).to_millis();
    result.channel_messages_recorded = recorded.total_channel_messages();
  }
  {
    HarnessConfig config;
    config.seed = seed;
    config.faults = faults;
    SimDebugHarness harness(topology, make_gossip(n, GossipConfig{}),
                            std::move(config));
    harness.sim().run_for(point);
    const TimePoint start = harness.sim().now();
    harness.session().halt();
    auto wave = harness.session().wait_for_halt(Duration::seconds(60));
    if (!wave.has_value()) return result;
    result.halt_latency_ms = (wave->completed_at - start).to_millis();
    result.channel_messages_halted = wave->state.total_channel_messages();
    result.equal = wave->state.equivalent(recorded);
    record_metrics(
        "halt n=" + std::to_string(n) + " seed=" + std::to_string(seed),
        harness.sim());
  }
  return result;
}

int print_table() {
  print_header(
      "E1: S_h == S_r (Theorem 2)",
      "Same seeded execution, recorded (C&L) vs halted; states must be "
      "equivalent.\nPaper claim: the halted state equals the recorded state "
      "in process states and channel contents.");
  print_row("%4s %6s %10s %12s %12s %14s %12s", "n", "seed", "equal",
            "rec_msgs", "halt_msgs", "rec_lat_ms", "halt_lat_ms");
  int failures = 0;
  for (const std::uint32_t n : {2u, 4u, 8u, 16u, 32u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const EquivalenceResult r = run_pair(n, seed);
      if (!r.equal) ++failures;
      print_row("%4u %6llu %10s %12zu %12zu %14.2f %12.2f", n,
                static_cast<unsigned long long>(seed),
                r.equal ? "YES" : "NO", r.channel_messages_recorded,
                r.channel_messages_halted, r.record_latency_ms,
                r.halt_latency_ms);
    }
  }
  print_row("\nequivalence failures: %d (paper predicts 0)", failures);
  return failures;
}

void BM_HaltWave(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  double latency_ms = 0;
  std::uint64_t waves = 0;
  for (auto _ : state) {
    Rng topo_rng(seed);
    const Topology topology =
        Topology::random_strongly_connected(n, n, topo_rng);
    const HaltRunMetrics metrics = run_halt_wave(
        topology, make_gossip(n, GossipConfig{}), seed++, Duration::millis(20));
    latency_ms += metrics.halt_latency_ms;
    ++waves;
    benchmark::DoNotOptimize(metrics.completed);
  }
  state.counters["virtual_halt_latency_ms"] =
      benchmark::Counter(latency_ms / static_cast<double>(waves));
}
BENCHMARK(BM_HaltWave)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ddbg::bench

int main(int argc, char** argv) {
  const int failures = ddbg::bench::print_table();
  ddbg::bench::write_metrics_json("e1_equivalence");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Theorem 2 is a gate, not only a table row: any S_h != S_r fails the run.
  return failures > 0 ? 1 : 0;
}
