// What the per-process workers of the two threaded substrates (Runtime,
// TcpRuntime) share: the timer queue and the ProcessContext they hand
// their process.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/ids.hpp"
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

}  // namespace ddbg
