// Test utilities: a fake ProcessContext that records sends, for unit-testing
// the per-process engines without a runtime, and the shared bodies of the
// RuntimeWait.* / TcpRuntimeWait.* tests of a threaded runtime's wait.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/process.hpp"

namespace ddbg::testing {

class FakeContext final : public ProcessContext {
 public:
  FakeContext(ProcessId self, const Topology* topology)
      : self_(self), topology_(topology), rng_(7) {}

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] TimePoint now() const override { return now_; }
  [[nodiscard]] const Topology& topology() const override {
    return *topology_;
  }

  void send(ChannelId channel, Message message) override {
    sent.emplace_back(channel, std::move(message));
  }

  TimerId set_timer(Duration delay) override {
    timers.push_back(delay);
    return TimerId(static_cast<std::uint32_t>(timers.size()));
  }
  void cancel_timer(TimerId timer) override { cancelled.push_back(timer); }
  [[nodiscard]] Rng& rng() override { return rng_; }
  void stop_self() override { stopped = true; }

  void advance(Duration d) { now_ = now_ + d; }

  // Sent halt markers only, in order.
  [[nodiscard]] std::vector<std::pair<ChannelId, HaltMarkerData>>
  halt_markers() const {
    std::vector<std::pair<ChannelId, HaltMarkerData>> markers;
    for (const auto& [channel, message] : sent) {
      if (message.kind == MessageKind::kHaltMarker) {
        markers.emplace_back(channel, *message.halt);
      }
    }
    return markers;
  }

  std::vector<std::pair<ChannelId, Message>> sent;
  std::vector<Duration> timers;
  std::vector<TimerId> cancelled;
  bool stopped = false;

 private:
  ProcessId self_;
  const Topology* topology_;
  Rng rng_;
  TimePoint now_{0};
};

// ---------------------------------------------------------------------------
// Substrate::wait_until checks, run against a started one-process runtime
// (process 0).  Every condition counts its evaluations, reading its flag
// first, so a test can tell a waiter that has checked once and blocked.
// ---------------------------------------------------------------------------

inline constexpr Duration kWaitLimit = Duration::seconds(20);

inline std::vector<ProcessPtr> single_process(ProcessPtr process) {
  std::vector<ProcessPtr> processes;
  processes.push_back(std::move(process));
  return processes;
}

// Re-arms a 1 ms timer forever, so its worker keeps making progress (and
// notifying) while a test waits.
class Metronome final : public Process {
 public:
  void on_start(ProcessContext& ctx) override {
    ctx.set_timer(Duration::millis(1));
  }
  void on_timer(ProcessContext& ctx, TimerId) override {
    ctx.set_timer(Duration::millis(1));
  }
  void on_message(ProcessContext&, ChannelId, Message) override {}
};

// Waits until `flag` is set, counting its checks in `checks`.
template <typename Substrate>
bool wait_for_flag(const std::atomic<bool>& flag, std::atomic<int>& checks,
                   Duration timeout = kWaitLimit) {
  return Substrate::wait_until(
      [&] {
        const bool set = flag.load();
        checks.fetch_add(1);
        return set;
      },
      timeout);
}

// (a) A closure posted to the worker sets a flag; the wait for it returns
// true, `iterations` times in a row.
template <typename Substrate>
void check_posted_closures_wake_waiter(Substrate& runtime, int iterations) {
  int woken = 0;
  for (int i = 0; i < iterations; ++i) {
    // Shared: a closure that outlives a timed-out wait still has its flag.
    auto flag = std::make_shared<std::atomic<bool>>(false);
    runtime.post(ProcessId(0),
                 [flag](ProcessContext&, Process&) { flag->store(true); });
    if (Substrate::wait_until([&] { return flag->load(); }, kWaitLimit)) {
      ++woken;
    }
  }
  EXPECT_EQ(woken, iterations);
}

// (b) A flag set by a plain thread, after the waiter has checked once and
// blocked, is observed although no worker makes progress.
template <typename Substrate>
void check_non_worker_flip_observed() {
  std::atomic<bool> flag{false};
  std::atomic<int> checks{0};
  std::thread flipper([&] {
    while (checks.load() == 0) std::this_thread::yield();
    flag.store(true);
  });
  const bool held = wait_for_flag<Substrate>(flag, checks);
  flipper.join();
  EXPECT_TRUE(held);
  EXPECT_GE(checks.load(), 2);
}

// (c) A condition that never holds times out, and not early.
template <typename Substrate>
void check_timeout_not_early() {
  const Duration timeout = Duration::millis(30);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(Substrate::wait_until([] { return false; }, timeout));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::nanoseconds(timeout.ns));
}

// (d) Two threads blocked on different flags both wake when closures on
// the worker set them.
template <typename Substrate>
void check_two_waiters_both_wake(Substrate& runtime) {
  auto a = std::make_shared<std::atomic<bool>>(false);
  auto b = std::make_shared<std::atomic<bool>>(false);
  std::atomic<int> checks_a{0};
  std::atomic<int> checks_b{0};
  bool woke_a = false;
  bool woke_b = false;
  std::thread waiter_a(
      [&] { woke_a = wait_for_flag<Substrate>(*a, checks_a); });
  std::thread waiter_b(
      [&] { woke_b = wait_for_flag<Substrate>(*b, checks_b); });
  while (checks_a.load() == 0 || checks_b.load() == 0) {
    std::this_thread::yield();
  }
  runtime.post(ProcessId(0),
               [a](ProcessContext&, Process&) { a->store(true); });
  runtime.post(ProcessId(0),
               [b](ProcessContext&, Process&) { b->store(true); });
  waiter_a.join();
  waiter_b.join();
  EXPECT_TRUE(woke_a);
  EXPECT_TRUE(woke_b);
}

}  // namespace ddbg::testing
