// Parallel-vs-sequential simulator equivalence.
//
// The parallel engine's contract (sim/simulation.hpp) is not "statistically
// similar": every externally observable artifact — transport observer
// stream, debug-shim trace, metrics JSON, final process states, event and
// clock counters — must be byte-identical to the sequential engine for the
// same (topology, workload, latency model, fault plan, seed), on any worker
// count.  These tests run the same system under both engines and compare
// the raw bytes, across random topologies, seeds, latency models, timers,
// halt waves and fault-plan chaos.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/debug_shim.hpp"
#include "core/event.hpp"
#include "net/fault_plan.hpp"
#include "net/topology.hpp"
#include "net/transport_hooks.hpp"
#include "sim/simulation.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

// Records the full send/deliver stream, one line per callback.
class RecordingObserver final : public TransportObserver {
 public:
  void on_send(TimePoint when, ChannelId channel,
               const Message& message) override {
    log_ << "S " << when.ns << " " << channel.value() << " "
         << message.describe() << "\n";
  }
  void on_deliver(TimePoint when, ChannelId channel,
                  const Message& message) override {
    log_ << "D " << when.ns << " " << channel.value() << " "
         << message.describe() << "\n";
  }
  [[nodiscard]] std::string str() const { return log_.str(); }

 private:
  std::ostringstream log_;
};

struct Capture {
  std::string observer_log;
  std::string trace_log;    // shim LocalEvents, in trace-sink order
  std::string report_log;   // halt/resume/armed callbacks, in order
  std::string final_states; // describe_state() per process
  std::string metrics_json;
  std::uint64_t events_processed = 0;
  std::int64_t final_now = 0;
  std::uint32_t workers_used = 0;
};

struct RunSpec {
  std::uint64_t seed = 1;
  std::uint32_t workers = 1;
  // Factory because a LatencyModel is consumed by the SimulationConfig.
  std::function<std::unique_ptr<LatencyModel>()> latency;
  std::shared_ptr<FaultPlan> faults;
  // Called once the simulation exists, before it runs (halt injection &c).
  std::function<void(Simulation&)> script;
};

using ProcessFactory = std::function<std::vector<ProcessPtr>()>;

Capture run_system(const Topology& topology, const ProcessFactory& users,
                   const RunSpec& spec) {
  Capture capture;
  std::ostringstream trace;
  std::ostringstream reports;

  DebugShim::Options options;
  options.trace_sink = [&trace](const LocalEvent& event) {
    trace << event.describe() << "\n";
  };
  options.on_halted = [&reports](HaltId wave) {
    reports << "halted " << wave.value() << "\n";
  };
  options.on_resumed = [&reports](HaltId wave) {
    reports << "resumed " << wave.value() << "\n";
  };
  options.local_halt_report = [&reports](ProcessId p, std::uint64_t wave,
                                         const ProcessSnapshot& snapshot) {
    ByteWriter writer;
    snapshot.encode(writer);
    reports << "halt-report " << p.value() << " " << wave << " "
            << writer.size() << "b\n";
  };
  options.local_snapshot_report = [&reports](ProcessId p, std::uint64_t wave,
                                             const ProcessSnapshot& snapshot) {
    ByteWriter writer;
    snapshot.encode(writer);
    reports << "snapshot-report " << p.value() << " " << wave << " "
            << writer.size() << "b\n";
  };

  SimulationConfig config;
  config.seed = spec.seed;
  config.workers = spec.workers;
  if (spec.latency) config.latency = spec.latency();
  config.faults = spec.faults;

  Simulation sim(topology, wrap_in_shims(topology, users(), options),
                 std::move(config));
  RecordingObserver observer;
  sim.set_observer(&observer);
  capture.workers_used = sim.effective_workers();
  if (spec.script) spec.script(sim);
  EXPECT_TRUE(sim.run_until_quiescent());

  std::ostringstream states;
  for (const ProcessId p : topology.process_ids()) {
    states << p.value() << ": " << sim.process(p).describe_state() << "\n";
  }
  capture.observer_log = observer.str();
  capture.trace_log = trace.str();
  capture.report_log = reports.str();
  capture.final_states = states.str();
  capture.metrics_json = sim.metrics().snapshot(sim.now()).to_json();
  capture.events_processed = sim.events_processed();
  capture.final_now = sim.now().ns;
  return capture;
}

void expect_identical(const Capture& seq, const Capture& par,
                      const std::string& label) {
  EXPECT_EQ(seq.observer_log, par.observer_log) << label;
  EXPECT_EQ(seq.trace_log, par.trace_log) << label;
  EXPECT_EQ(seq.report_log, par.report_log) << label;
  EXPECT_EQ(seq.final_states, par.final_states) << label;
  EXPECT_EQ(seq.metrics_json, par.metrics_json) << label;
  EXPECT_EQ(seq.events_processed, par.events_processed) << label;
  EXPECT_EQ(seq.final_now, par.final_now) << label;
}

ProcessFactory token_ring_factory(std::uint32_t n, std::uint32_t rounds) {
  return [n, rounds] {
    std::vector<ProcessPtr> users;
    for (std::uint32_t i = 0; i < n; ++i) {
      TokenRingConfig config;
      config.rounds = rounds;
      users.push_back(std::make_unique<TokenRingProcess>(config));
    }
    return users;
  };
}

ProcessFactory gossip_factory(std::uint32_t n, std::uint32_t max_sends) {
  return [n, max_sends] {
    std::vector<ProcessPtr> users;
    for (std::uint32_t i = 0; i < n; ++i) {
      GossipConfig config;
      config.max_sends = max_sends;
      users.push_back(std::make_unique<GossipProcess>(config));
    }
    return users;
  };
}

TEST(SimParallel, TokenRingByteIdenticalAcrossWorkerCounts) {
  const Topology topology = Topology::ring(8);
  RunSpec spec;
  spec.seed = 11;
  spec.workers = 1;
  const Capture seq = run_system(topology, token_ring_factory(8, 20), spec);
  ASSERT_GT(seq.events_processed, 0u);
  for (const std::uint32_t workers : {2u, 3u, 4u, 8u}) {
    spec.workers = workers;
    const Capture par = run_system(topology, token_ring_factory(8, 20), spec);
    EXPECT_GT(par.workers_used, 1u);
    expect_identical(seq, par, "workers=" + std::to_string(workers));
  }
}

TEST(SimParallel, GossipOnRandomTopologiesAndSeedsByteIdentical) {
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    Rng topo_rng(seed * 977);
    const std::vector<Topology> shapes = {
        Topology::ring(5),
        Topology::tree(9),
        Topology::complete(4),
        Topology::random_strongly_connected(6, 8, topo_rng),
    };
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      const Topology& topology = shapes[s];
      const auto users = gossip_factory(topology.num_processes(), 12);
      RunSpec spec;
      spec.seed = seed;
      spec.workers = 1;
      const Capture seq = run_system(topology, users, spec);
      spec.workers = 4;
      const Capture par = run_system(topology, users, spec);
      expect_identical(seq, par,
                       "seed=" + std::to_string(seed) +
                           " shape=" + std::to_string(s));
    }
  }
}

TEST(SimParallel, LatencyModelsByteIdentical) {
  const Topology topology = Topology::tree(9);
  const auto users = gossip_factory(9, 10);
  const std::vector<
      std::pair<std::string, std::function<std::unique_ptr<LatencyModel>()>>>
      models = {
          {"constant", [] { return constant_latency(Duration::millis(2)); }},
          {"uniform",
           [] {
             return uniform_latency(Duration::millis(1), Duration::millis(5));
           }},
          {"exponential",
           [] {
             return exponential_latency(Duration::millis(3),
                                        Duration::micros(500));
           }},
      };
  for (const auto& [name, factory] : models) {
    RunSpec spec;
    spec.seed = 5;
    spec.latency = factory;
    spec.workers = 1;
    const Capture seq = run_system(topology, users, spec);
    spec.workers = 4;
    const Capture par = run_system(topology, users, spec);
    EXPECT_GT(par.workers_used, 1u) << name;
    expect_identical(seq, par, name);
  }
}

TEST(SimParallel, ZeroLookaheadFallsBackToSequential) {
  const Topology topology = Topology::ring(4);
  RunSpec spec;
  spec.workers = 8;
  spec.latency = [] { return constant_latency(Duration{0}); };
  const Capture zero =
      run_system(topology, token_ring_factory(4, 3), spec);
  EXPECT_EQ(zero.workers_used, 1u);

  spec.latency = [] {
    return uniform_latency(Duration{0}, Duration::millis(2));
  };
  const Capture zero_low =
      run_system(topology, token_ring_factory(4, 3), spec);
  EXPECT_EQ(zero_low.workers_used, 1u);
}

TEST(SimParallel, WorkersCappedByProcessCount) {
  const Topology topology = Topology::ring(3);
  RunSpec spec;
  spec.workers = 64;
  spec.seed = 3;
  const Capture par = run_system(topology, token_ring_factory(3, 5), spec);
  EXPECT_EQ(par.workers_used, 3u);
  spec.workers = 1;
  const Capture seq = run_system(topology, token_ring_factory(3, 5), spec);
  expect_identical(seq, par, "capped workers");
}

TEST(SimParallel, HaltWavesByteIdentical) {
  // Inject a spontaneous halt mid-run and a resume after it: the halt
  // markers, buffered channel state, halt reports and resume replay must
  // come out identical while surrounding traffic executes in parallel
  // windows.
  const Topology topology = Topology::ring(6);
  const auto script = [](Simulation& sim) {
    sim.schedule_call(TimePoint{Duration::millis(40).ns}, [&sim] {
      sim.post(ProcessId(2), [](ProcessContext& ctx, Process& process) {
        dynamic_cast<DebugShim&>(process).initiate_halt(ctx);
      });
    });
  };
  RunSpec spec;
  spec.seed = 17;
  spec.script = script;
  spec.workers = 1;
  const Capture seq = run_system(topology, token_ring_factory(6, 40), spec);
  EXPECT_NE(seq.report_log.find("halted"), std::string::npos);
  spec.workers = 4;
  const Capture par = run_system(topology, token_ring_factory(6, 40), spec);
  expect_identical(seq, par, "halt wave");
}

TEST(SimParallel, FaultPlanChaosByteIdentical) {
  // Drops, duplicates, reordering, delays and resets drive the reliability
  // layer's retransmit/ack/reconnect machinery; all of it must replay
  // identically through the windowed engine.
  FaultSpec fault_spec;
  fault_spec.drop = 0.10;
  fault_spec.duplicate = 0.08;
  fault_spec.reorder = 0.08;
  fault_spec.delay = 0.08;
  fault_spec.reset = 0.02;
  const Topology topology = Topology::ring(6);
  for (const std::uint64_t seed : {2u, 9u}) {
    RunSpec spec;
    spec.seed = seed;
    spec.faults = std::make_shared<FaultPlan>(fault_spec, seed * 31);
    spec.workers = 1;
    const Capture seq = run_system(topology, token_ring_factory(6, 15), spec);
    spec.workers = 4;
    const Capture par = run_system(topology, token_ring_factory(6, 15), spec);
    expect_identical(seq, par, "faults seed=" + std::to_string(seed));
  }
}

// Simulator timer ids are a per-process stream, so a system past 4094
// processes (the ceiling of the former owner<<20|seq packing) can set
// timers, and both engines still agree on it byte for byte.
TEST(SimParallel, GossipPast4094ProcessesByteIdentical) {
  const auto run = [](std::uint32_t workers) {
    SimulationConfig config;
    config.seed = 13;
    config.workers = workers;
    Simulation sim(Topology::ring(5000), make_gossip(5000, GossipConfig{}),
                   std::move(config));
    sim.run_for(Duration::millis(20));
    // Every process has sent on several timer rounds.
    EXPECT_GT(sim.metrics().totals().messages_delivered, 4u * 5000u);
    return sim.metrics().snapshot(sim.now()).to_json();
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(SimParallel, RepeatedRunsOnOneEngineAreStable) {
  // Guards against nondeterminism *within* the parallel engine itself
  // (e.g. an unstaged effect whose order depends on thread scheduling).
  const Topology topology = Topology::complete(5);
  const auto users = gossip_factory(5, 15);
  RunSpec spec;
  spec.seed = 29;
  spec.workers = 4;
  const Capture first = run_system(topology, users, spec);
  for (int i = 0; i < 3; ++i) {
    const Capture again = run_system(topology, users, spec);
    expect_identical(first, again, "repeat " + std::to_string(i));
  }
}

}  // namespace
}  // namespace ddbg
