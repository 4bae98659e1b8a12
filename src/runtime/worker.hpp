// What the two threaded substrates (Runtime, TcpRuntime) share: the
// timer queue and the ProcessContext their workers hand their process,
// the progress signal their waiters block on, and the runtime-level
// clock and worker lookup.
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
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/time.hpp"
#include "net/process.hpp"

namespace ddbg {

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

// The context a worker runs its process's handlers with: the runtime's
// clock, topology, send path and metrics, the worker's timers and rng.
template <typename Worker>
class WorkerContext final : public ProcessContext {
 public:
  explicit WorkerContext(Worker& worker) : worker_(worker) {}

  [[nodiscard]] ProcessId self() const override { return worker_.id(); }
  [[nodiscard]] TimePoint now() const override {
    return worker_.runtime().now();
  }
  [[nodiscard]] const Topology& topology() const override {
    return worker_.runtime().topology();
  }
  void send(ChannelId channel, Message message) override {
    worker_.runtime().do_send(worker_.id(), channel, std::move(message));
  }
  TimerId set_timer(Duration delay) override {
    return worker_.add_timer(delay);
  }
  void cancel_timer(TimerId timer) override { worker_.cancel_timer(timer); }
  [[nodiscard]] Rng& rng() override { return worker_.rng(); }
  [[nodiscard]] obs::MetricsRegistry* metrics() const override {
    return &worker_.runtime().metrics();
  }
  // No bookkeeping: a "stopped" process simply schedules no further
  // timers; its thread keeps serving messages so markers flow.
  void stop_self() override {}

 private:
  Worker& worker_;
};

// Wakes threads waiting on state the workers change (a posted closure
// ran, a halt wave completed) when a worker makes progress, instead of
// having them sleep-poll.  One signal serves the whole process because
// Runtime::wait_until and TcpRuntime::wait_until are static.
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

// The worker running process `id`.
template <typename Worker>
[[nodiscard]] Worker& worker_of(
    const std::vector<std::unique_ptr<Worker>>& workers, ProcessId id) {
  DDBG_ASSERT(id.value() < workers.size(), "unknown process");
  return *workers[id.value()];
}

}  // namespace ddbg
