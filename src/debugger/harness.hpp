// Hosts and harnesses: one-call wiring of (topology, user processes) into a
// debuggable system on any substrate.
//
//   SimDebugHarness harness(Topology::ring(4), make_ring_processes(...));
//   harness.session().set_breakpoint("p0:event(token)");
//   harness.sim().run_for(Duration::seconds(1));
//
// The harness extends the topology with the debugger process (section
// 2.2.3), wraps every user process in a DebugShim, appends a
// DebuggerProcess, and exposes a DebuggerSession bound to the right host.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/debug_shim.hpp"
#include "debugger/debugger_process.hpp"
#include "debugger/session.hpp"
#include "runtime/runtime.hpp"
#include "runtime/tcp_runtime.hpp"
#include "sim/simulation.hpp"

namespace ddbg {

class SimHost final : public SessionHost {
 public:
  explicit SimHost(Simulation& sim) : sim_(sim) {}

  void post(ProcessId target,
            std::function<void(ProcessContext&, Process&)> action) override {
    sim_.post(target, std::move(action));
  }

  bool wait(const std::function<bool()>& condition,
            Duration timeout) override {
    return sim_.run_until_condition(condition, sim_.now() + timeout);
  }

 private:
  Simulation& sim_;
};

// Session adapter for the threaded substrates (Runtime, TcpRuntime): posts
// cross to the target process's thread, waits block on the caller's until
// worker progress (or the 200 us backstop) makes them re-check.
template <typename Substrate>
class ThreadedHost final : public SessionHost {
 public:
  explicit ThreadedHost(Substrate& runtime) : runtime_(runtime) {}

  void post(ProcessId target,
            std::function<void(ProcessContext&, Process&)> action) override {
    runtime_.post(target, std::move(action));
  }

  bool wait(const std::function<bool()>& condition,
            Duration timeout) override {
    return Substrate::wait_until(condition, timeout);
  }

 private:
  Substrate& runtime_;
};

using RuntimeHost = ThreadedHost<Runtime>;
using TcpHost = ThreadedHost<TcpRuntime>;

struct HarnessConfig {
  std::uint64_t seed = 1;
  // 0 = flat debugger (one control channel pair per user, the paper's
  // single-`d` model).  >= 2 = hierarchical debugger tier built with
  // Topology::with_debugger_tree(fanout): users hang off leaf aggregators,
  // aggregators off higher aggregators, the root plays `d`.
  std::uint32_t debugger_fanout = 0;
  std::unique_ptr<LatencyModel> latency;  // simulator only
  DebugShim::Options shim_options;
  // Fault adversary, forwarded to the substrate (net/fault_plan.hpp).
  // Null keeps the reliable fast paths untouched.
  std::shared_ptr<FaultPlan> faults;
  ReliableConfig reliable;
  // Simulator worker threads (SimulationConfig::workers); results are
  // byte-identical for any value.  Ignored by the threaded runtime.
  std::uint32_t workers = 1;
  // Record/replay sink (src/replay): wired into every DebugShim (delivery/
  // timer records), the DebuggerProcess (halt cuts) and the substrate
  // (fault/reconnect annotations).  Null keeps every path untouched.
  std::shared_ptr<ReplaySink> replay;
};

// The body every harness shares: the debugger wired into the user
// topology (section 2.2.3), every user process wrapped in a DebugShim,
// the substrate built from the result, and a DebuggerSession bound to the
// substrate's host.  Each harness below only turns HarnessConfig into its
// substrate's config.
template <typename Substrate, typename Host>
class DebugHarness {
 public:
  DebugHarness(const DebugHarness&) = delete;
  DebugHarness& operator=(const DebugHarness&) = delete;

  [[nodiscard]] DebuggerSession& session() { return *session_; }
  [[nodiscard]] DebuggerProcess& debugger() { return *debugger_; }
  [[nodiscard]] const Topology& topology() const {
    return substrate_->topology();
  }
  [[nodiscard]] ProcessId debugger_id() const { return debugger_id_; }
  // The shim wrapping user process p.
  [[nodiscard]] DebugShim& shim(ProcessId p) {
    auto* shim = dynamic_cast<DebugShim*>(&substrate_->process(p));
    DDBG_ASSERT(shim != nullptr, "process is not wrapped in a DebugShim");
    return *shim;
  }
  // Breakpoint watches armed across all shims so far.  Arming is
  // asynchronous (arm commands travel as control messages), so a test that
  // needs a breakpoint live before it lets traffic flow waits on this
  // rather than sleeping.
  [[nodiscard]] std::size_t armed_count() const {
    return armed_count_->load(std::memory_order_acquire);
  }
  [[nodiscard]] bool wait_for_armed(std::size_t watches, Duration timeout) {
    return host_->wait([this, watches] { return armed_count() >= watches; },
                       timeout);
  }

 protected:
  // Defined in harness.cpp, the only place the harnesses are built.
  template <typename SubstrateConfig>
  DebugHarness(const Topology& user_topology, std::vector<ProcessPtr> users,
               HarnessConfig& config, SubstrateConfig substrate_config);
  ~DebugHarness() = default;

  std::shared_ptr<std::atomic<std::size_t>> armed_count_ =
      std::make_shared<std::atomic<std::size_t>>(0);
  std::shared_ptr<ReplaySink> replay_;  // keeps the recorder alive
  std::unique_ptr<Substrate> substrate_;
  DebuggerProcess* debugger_ = nullptr;  // owned by substrate_
  ProcessId debugger_id_;
  std::unique_ptr<Host> host_;
  std::unique_ptr<DebuggerSession> session_;
};

// Deterministic-simulator harness.
class SimDebugHarness : public DebugHarness<Simulation, SimHost> {
 public:
  SimDebugHarness(const Topology& user_topology,
                  std::vector<ProcessPtr> users, HarnessConfig config = {});

  [[nodiscard]] Simulation& sim() { return *substrate_; }
};

// Multithreaded-runtime harness.
class RuntimeDebugHarness : public DebugHarness<Runtime, RuntimeHost> {
 public:
  RuntimeDebugHarness(const Topology& user_topology,
                      std::vector<ProcessPtr> users,
                      HarnessConfig config = {});
  ~RuntimeDebugHarness() { shutdown(); }

  void start() { substrate_->start(); }
  void shutdown() { substrate_->shutdown(); }

  [[nodiscard]] Runtime& runtime() { return *substrate_; }
};

// TCP-loopback harness: the same wiring crossing real sockets.  With a
// debugger tier, every convergecast hop is a multiplexed TCP frame, so
// halt/breakpoint/resume tests at moderate N exercise the epoll reactor
// under genuine kernel backpressure.
class TcpDebugHarness : public DebugHarness<TcpRuntime, TcpHost> {
 public:
  TcpDebugHarness(const Topology& user_topology,
                  std::vector<ProcessPtr> users, HarnessConfig config = {});
  ~TcpDebugHarness() { shutdown(); }

  [[nodiscard]] bool start() { return substrate_->start(); }
  void shutdown() { substrate_->shutdown(); }

  [[nodiscard]] TcpRuntime& tcp() { return *substrate_; }
};

}  // namespace ddbg
