// Experiment E9 (section 2.2.4): halt-order information.
//
// Each process appends its name to the halt marker before forwarding, so a
// received marker describes which processes already halted.  This bench
// verifies the paths are *true* halt orders (every process named in a path
// really halted earlier, checked against on_halted timestamps) and reports
// path-length statistics per topology.
#include <benchmark/benchmark.h>

#include <map>

#include "analysis/stats.hpp"
#include "bench/bench_util.hpp"

namespace ddbg::bench {
namespace {

struct HaltOrderRow {
  bool complete = false;
  bool paths_truthful = false;  // every path prefix halted earlier
  double mean_path_len = 0;
  double max_path_len = 0;
};

HaltOrderRow run_topology(const Topology& topology, std::uint32_t n,
                          bool spontaneous, std::uint64_t seed) {
  auto halt_times = std::make_shared<std::map<ProcessId, TimePoint>>();
  Simulation* sim_ptr = nullptr;

  HarnessConfig config;
  config.seed = seed;
  // Capture per-process halt instants.
  struct Tracker {
    std::shared_ptr<std::map<ProcessId, TimePoint>> times;
    Simulation** sim;
    ProcessId next{0};
  };
  // on_halted carries no process id, so bind one callback per shim through
  // wrap order: instead, record via describe — simpler: use local report.
  config.shim_options.local_halt_report =
      [halt_times, &sim_ptr](ProcessId p, std::uint64_t,
                             const ProcessSnapshot& snapshot) {
        (*halt_times)[p] = snapshot.captured_at;
        (void)sim_ptr;
      };
  SimDebugHarness harness(topology, make_gossip(n, GossipConfig{}),
                          std::move(config));
  sim_ptr = &harness.sim();
  harness.sim().run_for(Duration::millis(20));
  if (spontaneous) {
    harness.sim().post(ProcessId(0), [](ProcessContext& ctx, Process& process) {
      dynamic_cast<DebugShim&>(process).initiate_halt(ctx);
    });
  } else {
    harness.session().halt();
  }
  auto wave = harness.session().wait_for_halt(Duration::seconds(60));

  HaltOrderRow row;
  row.complete = wave.has_value();
  if (!wave.has_value()) return row;

  row.paths_truthful = true;
  std::vector<double> lengths;
  const ProcessId d = harness.debugger_id();
  for (const auto& [p, snapshot] : wave->state.snapshots()) {
    const std::vector<ProcessId>& path = snapshot.halt_path;
    lengths.push_back(static_cast<double>(path.size()));
    const TimePoint own = halt_times->at(p);
    for (const ProcessId predecessor : path) {
      if (predecessor == d) continue;  // the debugger never halts
      auto it = halt_times->find(predecessor);
      if (it == halt_times->end() || it->second > own) {
        row.paths_truthful = false;
      }
    }
  }
  const Summary summary = summarize(lengths);
  row.mean_path_len = summary.mean;
  row.max_path_len = summary.max;
  record_metrics(std::string(spontaneous ? "p0" : "debugger") +
                     " n=" + std::to_string(n),
                 harness.sim());
  return row;
}

void print_table() {
  print_header(
      "E9: halt-order information (section 2.2.4)",
      "Halt markers accumulate the names of already-halted processes.\n"
      "'truthful' = every process named in a path halted no later than the "
      "path's receiver.\nPaper claim: the marker path tells the programmer "
      "the order in which processes halted.");
  print_row("%10s %4s %12s %12s %14s %12s", "family", "n", "initiator",
            "truthful", "mean_path", "max_path");
  for (const std::uint32_t n : {4u, 8u, 16u, 32u}) {
    for (const bool spontaneous : {false, true}) {
      Rng rng(n);
      const struct {
        const char* name;
        Topology topology;
      } topologies[] = {
          {"ring", Topology::ring(n)},
          {"star", Topology::star(n)},
          {"random", Topology::random_strongly_connected(n, n, rng)},
      };
      for (const auto& entry : topologies) {
        const HaltOrderRow row =
            run_topology(entry.topology, n, spontaneous, n);
        print_row("%10s %4u %12s %12s %14.2f %12.0f", entry.name, n,
                  spontaneous ? "p0" : "debugger",
                  row.complete ? (row.paths_truthful ? "yes" : "NO")
                               : "incomplete",
                  row.mean_path_len, row.max_path_len);
      }
    }
  }
  print_row("\n(debugger-initiated waves have short paths — one control "
            "hop; spontaneous waves\ngrow paths along the application "
            "topology)");
}

void BM_HaltOrderCollection(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_topology(Topology::ring(n), n, false, seed++).complete);
  }
}
BENCHMARK(BM_HaltOrderCollection)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ddbg::bench

int main(int argc, char** argv) {
  ddbg::bench::print_table();
  ddbg::bench::write_metrics_json("e9_halt_order");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
