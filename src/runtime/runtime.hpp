// Multithreaded runtime: one OS thread per process, blocking inboxes,
// immediate (in-memory) channel delivery.
//
// This runtime exists to demonstrate the algorithms under real concurrency
// and real (scheduler-induced) communication delay: handlers race across
// processes exactly as they would across machines, while each process's
// handlers stay serialized on its own thread.  Process implementations run
// unchanged on this runtime and on the deterministic simulator.
//
// Channel model: send() pushes the message into the destination process's
// inbox under a lock, so channels are reliable, unbounded and FIFO
// (section 2.1's assumptions).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/fault_plan.hpp"
#include "net/process.hpp"
#include "net/reliable.hpp"
#include "net/reliable_link.hpp"
#include "net/replay_hooks.hpp"
#include "net/topology.hpp"
#include "net/transport_hooks.hpp"
#include "runtime/worker.hpp"

namespace ddbg {

struct RuntimeConfig {
  std::uint64_t seed = 1;
  // Fault adversary.  When set, sends are staged in per-channel reliability
  // senders (owned by the sending worker's thread) and subjected to the
  // plan; receivers suppress duplicates and release in sequence order, so
  // processes still observe section 2.1's reliable FIFO channels.  Null
  // (default) keeps the direct-delivery fast path untouched.
  std::shared_ptr<FaultPlan> faults;
  ReliableConfig reliable;
  // Record/replay sink (src/replay).  The runtime appends transport-level
  // annotations — fault draws, reconnects, resync replays — as diagnostic
  // provenance; the user-boundary inputs are recorded by the DebugShims.
  // Null (default) leaves every path untouched.
  std::shared_ptr<ReplaySink> replay;
};

class Runtime {
 public:
  Runtime(Topology topology, std::vector<ProcessPtr> processes,
          RuntimeConfig config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Launch all process threads (calls on_start on each thread).
  void start();
  // Stop all process threads; idempotent.  Pending inbox items are dropped.
  void shutdown();

  // Post a closure to run on `target`'s thread, in process context,
  // serialized with its handlers.  The cross-thread injection point used by
  // the debugger session.
  void post(ProcessId target,
            std::function<void(ProcessContext&, Process&)> action);

  // Post a closure and wait for it to run; returns false on timeout or if
  // the runtime is shut down first.  Must not be called from a process
  // thread.
  bool call(ProcessId target,
            std::function<void(ProcessContext&, Process&)> action,
            Duration timeout);

  // Block until `condition` (evaluated on the caller's thread) holds or
  // `timeout` elapses; false on timeout.  Woken by worker progress on any
  // threaded runtime (ProgressSignal, runtime/worker.hpp), re-checked at
  // least every 200 us for conditions other threads flip.
  static bool wait_until(const std::function<bool()>& condition,
                         Duration timeout) {
    return progress_signal().wait_until(condition, timeout);
  }

  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] Process& process(ProcessId id);
  [[nodiscard]] TransportStats stats() const {
    return transport_stats_from(metrics_);
  }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] TimePoint now() const { return clock_.now(); }

 private:
  template <typename> friend class WorkerContext;
  class Worker;

  void do_send(ProcessId sender, ChannelId channel, Message message);

  Topology topology_;
  RuntimeConfig config_;
  obs::MetricsRegistry metrics_;
  // Reliable links, indexed by channel; empty unless config_.faults.  A
  // channel's sender half and retry arming belong to its source worker's
  // thread, its receiver half to its destination worker's.
  LinkEnv link_env_;
  std::vector<LinkSender> rel_send_;
  std::vector<LinkReceiver> rel_recv_;
  std::vector<std::chrono::steady_clock::time_point> retry_arm_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> next_message_id_{1};
  // Per-runtime (not static): ids restart at 1 for every instance, so runs
  // are deterministic per instance and long test suites cannot wrap.
  std::atomic<std::uint32_t> next_timer_id_{1};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  RuntimeClock clock_;
};

}  // namespace ddbg
