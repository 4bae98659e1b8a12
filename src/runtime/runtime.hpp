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

#include <chrono>
#include <vector>

#include "common/ids.hpp"
#include "net/process.hpp"
#include "net/topology.hpp"
#include "runtime/worker.hpp"

namespace ddbg {

class Runtime : public RuntimeShell {
 public:
  Runtime(Topology topology, std::vector<ProcessPtr> processes,
          RuntimeConfig config = {});
  ~Runtime();

  // Launch all process threads (calls on_start on each thread).
  void start();
  // Stop all process threads; idempotent.  Pending inbox items are dropped.
  void shutdown();

 private:
  template <typename> friend class WorkerContext;
  class Worker;

  void do_send(ProcessId sender, ChannelId channel, Message message);

  // Per channel: the earliest retransmit check already scheduled on the
  // source worker; empty unless links_.enabled().  Source-thread state.
  std::vector<std::chrono::steady_clock::time_point> retry_arm_;
};

}  // namespace ddbg
