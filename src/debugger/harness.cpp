#include "debugger/harness.hpp"

#include "debugger/aggregator.hpp"

namespace ddbg {

namespace {

struct WiredSystem {
  Topology topology;  // with debugger (tier)
  std::vector<ProcessPtr> processes;
  DebuggerProcess* debugger = nullptr;
};

WiredSystem wire(const Topology& user_topology, std::vector<ProcessPtr> users,
                 std::uint32_t debugger_fanout,
                 DebugShim::Options shim_options,
                 std::shared_ptr<std::atomic<std::size_t>> armed_count,
                 ReplaySink* replay = nullptr) {
  // Count armed watches harness-wide, chaining any hook the caller set.
  // The counter outlives the shims via shared ownership, and the hook runs
  // on process threads — hence the atomic.
  shim_options.on_armed = [armed_count = std::move(armed_count),
                           user_hook = std::move(shim_options.on_armed)](
                              ProcessId p, BreakpointId bp) {
    armed_count->fetch_add(1, std::memory_order_acq_rel);
    if (user_hook) user_hook(p, bp);
  };
  // Record mode: every shim logs its user-boundary inputs, the debugger
  // logs completed halt cuts.  (The harness owns the sink's lifetime.)
  if (replay != nullptr) shim_options.replay_record = replay;
  WiredSystem wired;
  wired.topology = debugger_fanout == 0
                       ? user_topology.with_debugger()
                       : user_topology.with_debugger_tree(debugger_fanout);
  wired.processes =
      wrap_in_shims(wired.topology, std::move(users), std::move(shim_options));
  // Tier processes occupy the slots after the users, root (the debugger)
  // last; process ids must line up with the topology's slots.
  for (std::uint32_t i = 0; i < wired.topology.num_aggregators(); ++i) {
    wired.processes.push_back(std::make_unique<AggregatorProcess>());
  }
  auto debugger = std::make_unique<DebuggerProcess>();
  debugger->set_replay_sink(replay);
  wired.debugger = debugger.get();
  wired.processes.push_back(std::move(debugger));
  return wired;
}

}  // namespace

template <typename Substrate, typename Host>
template <typename SubstrateConfig>
DebugHarness<Substrate, Host>::DebugHarness(const Topology& user_topology,
                                            std::vector<ProcessPtr> users,
                                            HarnessConfig& config,
                                            SubstrateConfig substrate_config)
    : replay_(config.replay) {
  WiredSystem wired = wire(user_topology, std::move(users),
                           config.debugger_fanout,
                           std::move(config.shim_options), armed_count_,
                           replay_.get());
  debugger_ = wired.debugger;
  debugger_id_ = wired.topology.debugger_id();
  substrate_ = std::make_unique<Substrate>(std::move(wired.topology),
                                           std::move(wired.processes),
                                           std::move(substrate_config));
  host_ = std::make_unique<Host>(*substrate_);
  session_ =
      std::make_unique<DebuggerSession>(*host_, *debugger_, debugger_id_);
}

namespace {

SimulationConfig sim_config(HarnessConfig& config) {
  SimulationConfig sim_config;
  sim_config.seed = config.seed;
  sim_config.latency = std::move(config.latency);
  sim_config.faults = std::move(config.faults);
  sim_config.reliable = config.reliable;
  sim_config.workers = config.workers;
  return sim_config;
}

// The fields both threaded runtimes take (TcpRuntimeConfig is a
// RuntimeConfig plus socket options).
template <typename Config>
Config runtime_config(HarnessConfig& config) {
  Config runtime_config;
  runtime_config.seed = config.seed;
  runtime_config.faults = std::move(config.faults);
  runtime_config.reliable = config.reliable;
  runtime_config.replay = config.replay;
  return runtime_config;
}

}  // namespace

// The base reads only debugger_fanout, shim_options and replay, none of
// which the config builders move from, so argument order cannot matter.
SimDebugHarness::SimDebugHarness(const Topology& user_topology,
                                 std::vector<ProcessPtr> users,
                                 HarnessConfig config)
    : DebugHarness(user_topology, std::move(users), config,
                   sim_config(config)) {}

RuntimeDebugHarness::RuntimeDebugHarness(const Topology& user_topology,
                                         std::vector<ProcessPtr> users,
                                         HarnessConfig config)
    : DebugHarness(user_topology, std::move(users), config,
                   runtime_config<RuntimeConfig>(config)) {}

TcpDebugHarness::TcpDebugHarness(const Topology& user_topology,
                                 std::vector<ProcessPtr> users,
                                 HarnessConfig config)
    : DebugHarness(user_topology, std::move(users), config,
                   runtime_config<TcpRuntimeConfig>(config)) {}

}  // namespace ddbg
