// Tests for the deterministic discrete-event simulator: delivery, FIFO
// order under random latencies, timers, determinism, injection.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_heap.hpp"
#include "sim/simulation.hpp"

namespace ddbg {
namespace {

// Records everything it receives; can echo.
class Recorder final : public Process {
 public:
  void on_message(ProcessContext& ctx, ChannelId in, Message message) override {
    received.emplace_back(in, message);
    receive_times.push_back(ctx.now());
  }
  std::vector<std::pair<ChannelId, Message>> received;
  std::vector<TimePoint> receive_times;
};

// Sends `count` numbered messages on every outgoing channel at start.
class Burster final : public Process {
 public:
  explicit Burster(int count) : count_(count) {}
  void on_start(ProcessContext& ctx) override {
    for (int i = 0; i < count_; ++i) {
      for (const ChannelId c : ctx.topology().out_channels(ctx.self())) {
        ByteWriter writer;
        writer.u32(static_cast<std::uint32_t>(i));
        ctx.send(c, Message::application(std::move(writer).take()));
      }
    }
  }
  void on_message(ProcessContext&, ChannelId, Message) override {}

 private:
  int count_;
};

// Fires a timer chain: schedules the next timer until `count` firings.
class TimerChain final : public Process {
 public:
  TimerChain(Duration interval, int count)
      : interval_(interval), count_(count) {}
  void on_start(ProcessContext& ctx) override {
    if (count_ > 0) ctx.set_timer(interval_);
  }
  void on_timer(ProcessContext& ctx, TimerId) override {
    fire_times.push_back(ctx.now());
    if (static_cast<int>(fire_times.size()) < count_) {
      ctx.set_timer(interval_);
    }
  }
  void on_message(ProcessContext&, ChannelId, Message) override {}
  std::vector<TimePoint> fire_times;

 private:
  Duration interval_;
  int count_;
};

Topology two_process_line() {
  Topology t(2);
  t.add_channel(ProcessId(0), ProcessId(1));
  return t;
}

TEST(Simulation, DeliversMessages) {
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Burster>(3));
  procs.push_back(std::make_unique<Recorder>());
  Simulation sim(two_process_line(), std::move(procs));
  EXPECT_TRUE(sim.run_until_quiescent());
  auto& recorder = dynamic_cast<Recorder&>(sim.process(ProcessId(1)));
  EXPECT_EQ(recorder.received.size(), 3u);
  const obs::TotalsSnapshot totals = sim.metrics().totals();
  EXPECT_EQ(totals.messages_sent, 3u);
  EXPECT_EQ(totals.messages_delivered, 3u);
  EXPECT_EQ(totals.sent[traffic_class(MessageKind::kApplication)], 3u);
}

TEST(Simulation, FifoUnderRandomLatency) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::vector<ProcessPtr> procs;
    procs.push_back(std::make_unique<Burster>(50));
    procs.push_back(std::make_unique<Recorder>());
    SimulationConfig config;
    config.seed = seed;
    config.latency = uniform_latency(Duration::micros(1), Duration::millis(20));
    Simulation sim(two_process_line(), std::move(procs), std::move(config));
    EXPECT_TRUE(sim.run_until_quiescent());
    auto& recorder = dynamic_cast<Recorder&>(sim.process(ProcessId(1)));
    ASSERT_EQ(recorder.received.size(), 50u);
    for (std::size_t i = 0; i < recorder.received.size(); ++i) {
      ByteReader reader(recorder.received[i].second.payload);
      EXPECT_EQ(reader.u32().value(), i) << "seed " << seed;
    }
  }
}

TEST(Simulation, MessageIdsAssignedAndUnique) {
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Burster>(5));
  procs.push_back(std::make_unique<Recorder>());
  Simulation sim(two_process_line(), std::move(procs));
  sim.run_until_quiescent();
  auto& recorder = dynamic_cast<Recorder&>(sim.process(ProcessId(1)));
  std::set<std::uint64_t> ids;
  for (auto& [channel, message] : recorder.received) {
    EXPECT_NE(message.message_id, 0u);
    ids.insert(message.message_id);
  }
  EXPECT_EQ(ids.size(), 5u);
}

TEST(Simulation, TimersFireInOrder) {
  Topology t(1);
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<TimerChain>(Duration::millis(5), 4));
  Simulation sim(std::move(t), std::move(procs));
  EXPECT_TRUE(sim.run_until_quiescent());
  auto& chain = dynamic_cast<TimerChain&>(sim.process(ProcessId(0)));
  ASSERT_EQ(chain.fire_times.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(chain.fire_times[i].ns, (static_cast<int>(i) + 1) * 5'000'000);
  }
}

TEST(Simulation, CancelledTimerDoesNotFire) {
  class Canceller final : public Process {
   public:
    void on_start(ProcessContext& ctx) override {
      const TimerId t = ctx.set_timer(Duration::millis(1));
      ctx.cancel_timer(t);
      ctx.set_timer(Duration::millis(2));
    }
    void on_timer(ProcessContext&, TimerId) override { ++fired; }
    void on_message(ProcessContext&, ChannelId, Message) override {}
    int fired = 0;
  };
  Topology t(1);
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Canceller>());
  Simulation sim(std::move(t), std::move(procs));
  sim.run_until_quiescent();
  EXPECT_EQ(dynamic_cast<Canceller&>(sim.process(ProcessId(0))).fired, 1);
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    std::vector<ProcessPtr> procs;
    procs.push_back(std::make_unique<Burster>(20));
    procs.push_back(std::make_unique<Recorder>());
    SimulationConfig config;
    config.seed = seed;
    config.latency = uniform_latency(Duration::micros(10), Duration::millis(3));
    Simulation sim(two_process_line(), std::move(procs), std::move(config));
    sim.run_until_quiescent();
    auto& recorder = dynamic_cast<Recorder&>(sim.process(ProcessId(1)));
    return recorder.receive_times;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Simulation, RunUntilStopsAtTime) {
  Topology t(1);
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<TimerChain>(Duration::millis(10), 100));
  Simulation sim(std::move(t), std::move(procs));
  sim.run_until(TimePoint{Duration::millis(35).ns});
  auto& chain = dynamic_cast<TimerChain&>(sim.process(ProcessId(0)));
  EXPECT_EQ(chain.fire_times.size(), 3u);
  EXPECT_EQ(sim.now().ns, Duration::millis(35).ns);
}

TEST(Simulation, InFlightAccounting) {
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Burster>(4));
  procs.push_back(std::make_unique<Recorder>());
  SimulationConfig config;
  config.latency = constant_latency(Duration::millis(10));
  Simulation sim(two_process_line(), std::move(procs), std::move(config));
  sim.run_until(TimePoint{Duration::millis(1).ns});
  EXPECT_EQ(sim.total_in_flight(), 4u);
  sim.run_until_quiescent();
  EXPECT_EQ(sim.total_in_flight(), 0u);
}

TEST(Simulation, ScheduleCallRunsAtTime) {
  Topology t(1);
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Recorder>());
  Simulation sim(std::move(t), std::move(procs));
  bool ran = false;
  sim.schedule_call(TimePoint{Duration::millis(7).ns}, [&] { ran = true; });
  sim.run_until(TimePoint{Duration::millis(6).ns});
  EXPECT_FALSE(ran);
  sim.run_until(TimePoint{Duration::millis(8).ns});
  EXPECT_TRUE(ran);
}

TEST(Simulation, PostRunsInProcessContext) {
  Topology t = two_process_line();
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Burster>(0));
  procs.push_back(std::make_unique<Recorder>());
  Simulation sim(std::move(t), std::move(procs));
  sim.run_until_quiescent();
  ProcessId seen;
  sim.post(ProcessId(1), [&](ProcessContext& ctx, Process& process) {
    seen = ctx.self();
    EXPECT_NE(dynamic_cast<Recorder*>(&process), nullptr);
  });
  sim.run_until_quiescent();
  EXPECT_EQ(seen, ProcessId(1));
}

TEST(Simulation, RunUntilConditionStopsEarly) {
  Topology t(1);
  std::vector<ProcessPtr> procs;
  auto chain = std::make_unique<TimerChain>(Duration::millis(1), 100);
  TimerChain* chain_ptr = chain.get();
  procs.push_back(std::move(chain));
  Simulation sim(std::move(t), std::move(procs));
  const bool met = sim.run_until_condition(
      [&] { return chain_ptr->fire_times.size() >= 5; },
      TimePoint{Duration::seconds(1).ns});
  EXPECT_TRUE(met);
  EXPECT_EQ(chain_ptr->fire_times.size(), 5u);
}

TEST(Simulation, ExponentialLatencyClampsPathologicalTail) {
  // A mean near the int64 ceiling makes nearly every exponential draw
  // overflow Duration's nanosecond clock; the sample must clamp to the
  // documented cap instead of hitting double->int64 UB.
  const Duration min_delay = Duration::micros(1);
  ExponentialLatency model(
      Duration{std::numeric_limits<std::int64_t>::max() / 2}, min_delay);
  Rng rng(31);
  bool clamped = false;
  for (int i = 0; i < 200; ++i) {
    const Duration d = model.sample(ChannelId(0), rng);
    EXPECT_GE(d.ns, min_delay.ns);
    EXPECT_LE(d.ns, min_delay.ns + ExponentialLatency::kMaxExtraDelay.ns);
    if (d.ns == min_delay.ns + ExponentialLatency::kMaxExtraDelay.ns) {
      clamped = true;
    }
  }
  EXPECT_TRUE(clamped);  // the cap demonstrably engaged
}

TEST(Simulation, ExponentialLatencyStillFifo) {
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<Burster>(30));
  procs.push_back(std::make_unique<Recorder>());
  SimulationConfig config;
  config.latency = exponential_latency(Duration::millis(5), Duration::micros(100));
  Simulation sim(two_process_line(), std::move(procs), std::move(config));
  sim.run_until_quiescent();
  auto& recorder = dynamic_cast<Recorder&>(sim.process(ProcessId(1)));
  ASSERT_EQ(recorder.received.size(), 30u);
  for (std::size_t i = 1; i < recorder.receive_times.size(); ++i) {
    EXPECT_LE(recorder.receive_times[i - 1], recorder.receive_times[i]);
  }
}

// ---------------------------------------------------------------------------
// EventHeap against a reference std::priority_queue over (when, seq)
// ---------------------------------------------------------------------------

// Counts live items so a test can see the heap delete what it still holds.
int g_live_heap_items = 0;

struct HeapItem {
  HeapItem(std::int64_t when_ns, std::uint64_t seq_in)
      : when{when_ns}, seq(seq_in) {
    ++g_live_heap_items;
  }
  ~HeapItem() { --g_live_heap_items; }
  HeapItem(const HeapItem&) = delete;
  HeapItem& operator=(const HeapItem&) = delete;

  TimePoint when;
  std::uint64_t seq;
};

using HeapKey = std::pair<std::int64_t, std::uint64_t>;
using ReferenceHeap =
    std::priority_queue<HeapKey, std::vector<HeapKey>, std::greater<>>;

// Random interleaved pushes and pops checked against the reference after
// every pop.  `tie_share` of the pushes reuse one hot time; seqs are drawn
// from a stream that starts at `seq_base` and is shuffled by a random
// stride, so keys are unique but arrive out of seq order.
void check_against_reference(std::uint64_t seed, int ops, double tie_share,
                             std::uint64_t seq_base) {
  Rng rng(seed);
  EventHeap<HeapItem> heap;
  ReferenceHeap reference;
  std::uint64_t next = 0;
  const std::int64_t hot_when = 500;
  for (int op = 0; op < ops; ++op) {
    if (reference.empty() || rng.next_bool(0.55)) {
      const std::int64_t when =
          rng.next_bool(tie_share)
              ? hot_when
              : static_cast<std::int64_t>(rng.next_below(1000));
      // 0x9e37...-strided walk: distinct values in scrambled order.
      const std::uint64_t seq =
          seq_base + ((next++ * 0x9e3779b97f4a7c15ULL) >> 20);
      heap.push(std::make_unique<HeapItem>(when, seq));
      reference.emplace(when, seq);
    } else {
      ASSERT_FALSE(heap.empty());
      EXPECT_EQ(heap.top_when().ns, reference.top().first);
      EXPECT_EQ(heap.top().seq, reference.top().second);
      const std::unique_ptr<HeapItem> item = heap.pop();
      ASSERT_EQ(HeapKey(item->when.ns, item->seq), reference.top())
          << "op " << op;
      reference.pop();
    }
    ASSERT_EQ(heap.size(), reference.size());
  }
  while (!reference.empty()) {
    const std::unique_ptr<HeapItem> item = heap.pop();
    ASSERT_EQ(HeapKey(item->when.ns, item->seq), reference.top());
    reference.pop();
  }
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, RandomInterleavingMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    check_against_reference(seed, 4000, 0.10, 0);
  }
  EXPECT_EQ(g_live_heap_items, 0);
}

TEST(EventHeap, HeavyTimeTiesPopInSeqOrder) {
  // At least 90% of the events share one virtual time, as under a
  // constant latency model: the order among them is seq alone.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    check_against_reference(seed, 4000, 0.95, 0);
  }
  EXPECT_EQ(g_live_heap_items, 0);
}

TEST(EventHeap, ProvisionalSeqsOrderAfterRealOnes) {
  // Provisional ids of in-window children start at 2^63, above every real
  // seq; a tie on `when` must put the real seq first.
  check_against_reference(7, 4000, 0.90, 1ULL << 63);
  EventHeap<HeapItem> heap;
  heap.push(std::make_unique<HeapItem>(10, (1ULL << 63) + 1));
  heap.push(std::make_unique<HeapItem>(10, 42));
  heap.push(std::make_unique<HeapItem>(10, 1ULL << 63));
  constexpr std::uint64_t kMaxSeq = std::numeric_limits<std::uint64_t>::max();
  heap.push(std::make_unique<HeapItem>(9, kMaxSeq));
  EXPECT_EQ(heap.pop()->seq, kMaxSeq);
  EXPECT_EQ(heap.pop()->seq, 42u);
  EXPECT_EQ(heap.pop()->seq, 1ULL << 63);
  EXPECT_EQ(heap.pop()->seq, (1ULL << 63) + 1);
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, EmptyThenRefill) {
  EventHeap<HeapItem> heap;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      heap.push(std::make_unique<HeapItem>(
          static_cast<std::int64_t>((i * 37) % 11), i));
    }
    HeapKey last{-1, 0};
    for (int i = 0; i < 100; ++i) {
      const std::unique_ptr<HeapItem> item = heap.pop();
      const HeapKey key(item->when.ns, item->seq);
      EXPECT_LT(last, key);
      last = key;
    }
    EXPECT_TRUE(heap.empty());
    EXPECT_EQ(heap.size(), 0u);
  }
  EXPECT_EQ(g_live_heap_items, 0);
}

TEST(EventHeap, DestructionDeletesQueuedEvents) {
  {
    EventHeap<HeapItem> heap;
    for (std::uint64_t i = 0; i < 50; ++i) {
      heap.push(
          std::make_unique<HeapItem>(static_cast<std::int64_t>(i % 3), i));
    }
    const std::unique_ptr<HeapItem> first = heap.pop();
    EXPECT_EQ(g_live_heap_items, 50);
    EXPECT_EQ(heap.size(), 49u);
  }
  EXPECT_EQ(g_live_heap_items, 0);
}

}  // namespace
}  // namespace ddbg
