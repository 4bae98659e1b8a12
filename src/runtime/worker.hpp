// The shell the two threaded substrates (Runtime, TcpRuntime) share: the
// config fields both take, the timer queue, the progress signal their
// waiters block on, the runtime clock, the worker base (process, context,
// rng, pool, thread, timers) and the runtime shell (topology, metrics,
// reliable links, workers, id counters and the calls whose bodies do not
// depend on how bytes move).  A substrate adds only how its workers wait
// for work and how it moves bytes.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/fault_plan.hpp"
#include "net/process.hpp"
#include "net/reliable.hpp"
#include "net/reliable_link.hpp"
#include "net/replay_hooks.hpp"
#include "net/topology.hpp"
#include "net/transport_hooks.hpp"

namespace ddbg {

struct RuntimeConfig {
  std::uint64_t seed = 1;
  // Fault adversary.  When set, sends are staged in per-channel reliable
  // links (net/reliable_link) and subjected to the plan; receivers
  // suppress duplicates and release in sequence order, so processes still
  // observe section 2.1's reliable FIFO channels.  Null (default) keeps
  // the direct fast path untouched.
  std::shared_ptr<FaultPlan> faults;
  ReliableConfig reliable;
  // Record/replay sink (src/replay).  The runtime appends transport-level
  // annotations (fault draws, reconnects, resync replays) as diagnostic
  // provenance; the user-boundary inputs are recorded by the DebugShims.
  // Null (default) leaves every path untouched.
  std::shared_ptr<ReplaySink> replay;
};

// Deadline-ordered process timers: handlers add and cancel them, the
// worker loop pops the due ones.  Not synchronized; each worker guards its
// queue with its own mutex.
class TimerQueue {
 public:
  using Clock = std::chrono::steady_clock;

  void add(TimerId timer, Clock::time_point deadline) {
    timers_.emplace(std::make_pair(deadline, timer.value()), timer);
    deadline_of_.emplace(timer.value(), deadline);
  }

  // A no-op once the timer fired or was cancelled.
  void cancel(TimerId timer) {
    const auto it = deadline_of_.find(timer.value());
    if (it == deadline_of_.end()) return;
    timers_.erase(std::make_pair(it->second, timer.value()));
    deadline_of_.erase(it);
  }

  // Remove and return the earliest timer due at `now`, if any.
  [[nodiscard]] std::optional<TimerId> pop_due(Clock::time_point now) {
    if (timers_.empty() || timers_.begin()->first.first > now) {
      return std::nullopt;
    }
    const TimerId due = timers_.begin()->second;
    deadline_of_.erase(due.value());
    timers_.erase(timers_.begin());
    return due;
  }

  // Earliest pending deadline; time_point::max() when none is pending.
  [[nodiscard]] Clock::time_point next_deadline() const {
    return timers_.empty() ? Clock::time_point::max()
                           : timers_.begin()->first.first;
  }

 private:
  // Ordered by deadline, TimerId breaking ties.  The index maps an id back
  // to its deadline so cancel erases the exact key instead of scanning.
  std::map<std::pair<Clock::time_point, std::uint32_t>, TimerId> timers_;
  std::unordered_map<std::uint32_t, Clock::time_point> deadline_of_;
};

// Wakes threads waiting on state the workers change (a posted closure
// ran, a halt wave completed) when a worker makes progress, instead of
// having them sleep-poll.  One signal serves the whole process because
// RuntimeShell::wait_until is static.
//
// No lost wake-up: a worker changes state, runs a seq_cst fence, then
// reads the waiter count; a waiter registers in the count, runs a seq_cst
// fence, then checks its condition.  Whichever fence comes first in the
// single total order, either the worker sees the waiter (and notifies
// under the mutex, which the waiter holds from its check until it
// blocks) or the waiter's check sees the new state.  A condition flipped
// by a thread that is not a worker (a session or test thread) is still
// seen within one backstop period.
class ProgressSignal {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr auto kBackstop = std::chrono::microseconds(200);

  // Called by workers after each batch of work; with nobody waiting it
  // costs the fence and one atomic load.
  void notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    { std::lock_guard<std::mutex> guard{mutex_}; }
    cv_.notify_all();
  }

  // Block until `condition` (evaluated on the caller's thread, under the
  // signal's mutex) holds or `timeout` elapses; false on timeout.
  bool wait_until(const std::function<bool()>& condition, Duration timeout) {
    const auto deadline = Clock::now() + std::chrono::nanoseconds(timeout.ns);
    const Registration registered(waiters_);
    std::unique_lock<std::mutex> lock{mutex_};
    while (!condition()) {
      const auto now = Clock::now();
      if (now >= deadline) return false;
      cv_.wait_until(lock, std::min(deadline, now + kBackstop));
    }
    return true;
  }

 private:
  class Registration {
   public:
    explicit Registration(std::atomic<std::uint32_t>& waiters)
        : waiters_(waiters) {
      waiters_.fetch_add(1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
    }
    ~Registration() { waiters_.fetch_sub(1, std::memory_order_relaxed); }
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;

   private:
    std::atomic<std::uint32_t>& waiters_;
  };

  std::atomic<std::uint32_t> waiters_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

[[nodiscard]] inline ProgressSignal& progress_signal() {
  // Never destroyed: a runtime with static storage may still be stopping
  // its workers (which notify) during static destruction.
  static ProgressSignal* const signal = new ProgressSignal();
  return *signal;
}

// A threaded runtime's clock: TimePoint is steady time since the epoch,
// which start() resets.
class RuntimeClock {
 public:
  void reset() { epoch_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] TimePoint now() const {
    return TimePoint{std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count()};
  }
  // The steady-clock instant of a TimePoint on this clock.
  [[nodiscard]] std::chrono::steady_clock::time_point at(TimePoint t) const {
    return epoch_ + std::chrono::nanoseconds(t.ns);
  }

 private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

class RuntimeShell;

// One process's half of a threaded runtime: the process, its context,
// rng, encode-buffer pool and thread, and the timers its handlers set.  A
// runtime's worker derives from it and adds its inbox or reactor.
class WorkerBase {
 public:
  using Closure = std::function<void(ProcessContext&, Process&)>;

  template <typename Runtime>
  WorkerBase(Runtime& runtime, ProcessId id, ProcessPtr process, Rng rng);
  virtual ~WorkerBase() = default;

  WorkerBase(const WorkerBase&) = delete;
  WorkerBase& operator=(const WorkerBase&) = delete;

  // Launch the thread; stop() asks it to stop and joins it.  A derived
  // worker's destructor must call stop() while its own members live.
  void start() {
    thread_ = std::thread([this] { run(); });
  }
  virtual void request_stop() = 0;
  void stop() {
    request_stop();
    if (thread_.joinable()) thread_.join();
  }

  // Queue `action` to run on this worker's thread, serialized with the
  // process's handlers.
  virtual void push_closure(Closure action) = 0;

  TimerId add_timer(Duration delay);
  void cancel_timer(TimerId timer) {
    std::lock_guard<std::mutex> guard{mutex_};
    timers_.cancel(timer);
  }

  [[nodiscard]] Process& process() { return *process_; }
  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  // Encode-buffer pool for sends issued from this worker's thread; only
  // that thread may touch it.
  [[nodiscard]] BufferPool& pool() { return pool_; }

 protected:
  // The thread body, until request_stop().
  virtual void run() = 0;
  // Make the thread look at its timers again: one was added.
  virtual void wake() = 0;

  RuntimeShell& shell_;
  const ProcessId id_;
  ProcessPtr process_;
  Rng rng_;
  std::unique_ptr<ProcessContext> context_;
  BufferPool pool_;
  // Guards timers_ and whatever queue the derived worker fills from other
  // threads.
  std::mutex mutex_;
  TimerQueue timers_;
  std::thread thread_;
};

// The context a worker runs its process's handlers with: the runtime's
// clock, topology, send path and metrics, the worker's timers and rng.
template <typename Runtime>
class WorkerContext final : public ProcessContext {
 public:
  WorkerContext(Runtime& runtime, WorkerBase& worker)
      : runtime_(runtime), worker_(worker) {}

  [[nodiscard]] ProcessId self() const override { return worker_.id(); }
  [[nodiscard]] TimePoint now() const override { return runtime_.now(); }
  [[nodiscard]] const Topology& topology() const override {
    return runtime_.topology();
  }
  void send(ChannelId channel, Message message) override {
    runtime_.do_send(worker_.id(), channel, std::move(message));
  }
  TimerId set_timer(Duration delay) override {
    return worker_.add_timer(delay);
  }
  void cancel_timer(TimerId timer) override { worker_.cancel_timer(timer); }
  [[nodiscard]] Rng& rng() override { return worker_.rng(); }
  [[nodiscard]] obs::MetricsRegistry* metrics() const override {
    return &runtime_.metrics();
  }
  // No bookkeeping: a "stopped" process simply schedules no further
  // timers; its thread keeps serving messages so markers flow.
  void stop_self() override {}

 private:
  Runtime& runtime_;
  WorkerBase& worker_;
};

template <typename Runtime>
WorkerBase::WorkerBase(Runtime& runtime, ProcessId id, ProcessPtr process,
                       Rng rng)
    : shell_(runtime),
      id_(id),
      process_(std::move(process)),
      rng_(rng),
      context_(std::make_unique<WorkerContext<Runtime>>(runtime, *this)) {}

// What Runtime and TcpRuntime hold and do identically.  Each derives from
// it, builds its workers with spawn_workers() and starts each send with
// prepare_send(); only its worker type and byte path are its own.
class RuntimeShell {
 public:
  RuntimeShell(const RuntimeShell&) = delete;
  RuntimeShell& operator=(const RuntimeShell&) = delete;

  // Post a closure to run on `target`'s thread, in process context,
  // serialized with its handlers.  The cross-thread injection point used
  // by the debugger session.
  void post(ProcessId target, WorkerBase::Closure action) {
    worker(target).push_closure(std::move(action));
  }

  // Block until `condition` (evaluated on the caller's thread) holds or
  // `timeout` elapses; false on timeout.  Woken by worker progress on any
  // threaded runtime (ProgressSignal), re-checked at least every 200 us
  // for conditions other threads flip.
  static bool wait_until(const std::function<bool()>& condition,
                         Duration timeout) {
    return progress_signal().wait_until(condition, timeout);
  }

  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] Process& process(ProcessId id) {
    return worker(id).process();
  }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] TimePoint now() const { return clock_.now(); }

 protected:
  RuntimeShell(const char* substrate, Topology topology,
               const RuntimeConfig& config)
      : topology_(std::move(topology)),
        metrics_(substrate, topology_.num_processes(),
                 channel_meta(topology_)),
        links_(topology_, config.faults, config.reliable, metrics_,
               config.replay) {}
  ~RuntimeShell() = default;

  // One Worker per process, each with an rng forked from `seed`.
  template <typename Worker, typename Runtime>
  void spawn_workers(Runtime& runtime, std::vector<ProcessPtr> processes,
                     std::uint64_t seed) {
    DDBG_ASSERT(processes.size() == topology_.num_processes(),
                "one Process per topology process required");
    Rng root(seed);
    workers_.reserve(processes.size());
    for (std::size_t i = 0; i < processes.size(); ++i) {
      workers_.push_back(std::make_unique<Worker>(
          runtime, ProcessId(static_cast<std::uint32_t>(i)),
          std::move(processes[i]), root.fork()));
    }
  }

  // Reset the clock and launch every worker's thread.
  void launch_workers() {
    clock_.reset();
    for (auto& worker : workers_) worker->start();
  }

  // What every send starts with: `sender` must be `channel`'s source, and
  // an unstamped message gets the runtime's next message id.
  const ChannelSpec& prepare_send(ProcessId sender, ChannelId channel,
                                  Message& message) {
    const ChannelSpec& spec = topology_.channel(channel);
    DDBG_ASSERT(spec.source == sender,
                "process may only send on its own outgoing channels");
    if (message.message_id == 0) {
      message.message_id = next_message_id_.fetch_add(1);
    }
    return spec;
  }

  [[nodiscard]] WorkerBase& worker(ProcessId id) const {
    DDBG_ASSERT(id.value() < workers_.size(), "unknown process");
    return *workers_[id.value()];
  }
  // The worker running `id`, as the runtime's own worker type.
  template <typename Worker>
  [[nodiscard]] Worker& worker_as(ProcessId id) const {
    return static_cast<Worker&>(worker(id));
  }

  Topology topology_;
  obs::MetricsRegistry metrics_;
  // Reliable links, indexed by channel; empty unless config.faults.  A
  // channel's sender half belongs to its source worker's thread, its
  // receiver half to its destination worker's.
  LinkTable links_;
  std::vector<std::unique_ptr<WorkerBase>> workers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  RuntimeClock clock_;

 private:
  friend class WorkerBase;

  std::atomic<std::uint64_t> next_message_id_{1};
  // Per-runtime (not static): ids restart at 1 for every instance, so runs
  // are deterministic per instance and long test suites cannot wrap.
  std::atomic<std::uint32_t> next_timer_id_{1};
};

inline TimerId WorkerBase::add_timer(Duration delay) {
  const TimerId id(shell_.next_timer_id_.fetch_add(1));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(delay.ns);
  {
    std::lock_guard<std::mutex> guard{mutex_};
    timers_.add(id, deadline);
  }
  wake();
  return id;
}

}  // namespace ddbg
