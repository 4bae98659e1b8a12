// Unit/integration tests of the DebugShim itself: event generation, clock
// stamping, variable tracking, control handling and report plumbing.
#include <gtest/gtest.h>

#include <span>

#include "analysis/trace.hpp"
#include "core/debug_shim.hpp"
#include "debugger/harness.hpp"
#include "net/replay_hooks.hpp"
#include "sim/simulation.hpp"
#include "tests/test_util.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

// A small instrumented process exercising the whole DebugApi.
class Instrumented final : public Debuggable {
 public:
  void on_start(ProcessContext& ctx) override {
    debug().enter_procedure("on_start");
    debug().set_var("x", 1);
    debug().event("ready");
    if (!ctx.topology().out_channels(ctx.self()).empty()) {
      for (const ChannelId c : ctx.topology().out_channels(ctx.self())) {
        if (!ctx.topology().channel(c).is_control) {
          ctx.send(c, Message::application(Bytes{42}));
        }
      }
    }
  }
  void on_message(ProcessContext&, ChannelId, Message message) override {
    debug().set_var("x", static_cast<std::int64_t>(message.payload.size()));
    debug().event("got_message");
  }

  [[nodiscard]] Bytes snapshot_state() const override { return Bytes{7}; }
  [[nodiscard]] std::string describe_state() const override { return "inst"; }
};

Topology pair_topology() {
  Topology t(2);
  t.add_channel(ProcessId(0), ProcessId(1));
  return t;
}

TEST(DebugShim, EmitsLifecycleAndApiEvents) {
  Trace trace;
  DebugShim::Options options;
  options.trace_sink = trace.sink();
  Topology topology = pair_topology();
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Instrumented>());
  users.push_back(std::make_unique<Instrumented>());
  Simulation sim(topology, wrap_in_shims(topology, std::move(users), options));
  sim.run_until_quiescent();

  const auto events = trace.events();
  auto count = [&](ProcessId p, LocalEventKind kind) {
    std::size_t n = 0;
    for (const LocalEvent& event : events) {
      if (event.process == p && event.kind == kind) ++n;
    }
    return n;
  };
  EXPECT_EQ(count(ProcessId(0), LocalEventKind::kProcessStarted), 1u);
  EXPECT_EQ(count(ProcessId(0), LocalEventKind::kProcedureEntered), 1u);
  EXPECT_EQ(count(ProcessId(0), LocalEventKind::kUserEvent), 1u);
  EXPECT_EQ(count(ProcessId(0), LocalEventKind::kStateChange), 1u);
  EXPECT_EQ(count(ProcessId(0), LocalEventKind::kMessageSent), 1u);
  EXPECT_EQ(count(ProcessId(0), LocalEventKind::kChannelCreated), 1u);
  EXPECT_EQ(count(ProcessId(1), LocalEventKind::kMessageReceived), 1u);
  // p1 never sends (no outgoing app channel).
  EXPECT_EQ(count(ProcessId(1), LocalEventKind::kMessageSent), 0u);
}

TEST(DebugShim, EventsHaveMonotonicLocalSeqAndLamport) {
  Trace trace;
  DebugShim::Options options;
  options.trace_sink = trace.sink();
  Topology topology = pair_topology();
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Instrumented>());
  users.push_back(std::make_unique<Instrumented>());
  Simulation sim(topology, wrap_in_shims(topology, std::move(users), options));
  sim.run_until_quiescent();

  std::map<ProcessId, std::uint64_t> last_seq;
  std::map<ProcessId, std::uint64_t> last_lamport;
  for (const LocalEvent& event : trace.events()) {
    if (last_seq.contains(event.process)) {
      EXPECT_GT(event.local_seq, last_seq[event.process]);
      EXPECT_GT(event.lamport, last_lamport[event.process]);
    }
    last_seq[event.process] = event.local_seq;
    last_lamport[event.process] = event.lamport;
  }
}

TEST(DebugShim, ReceiveLamportExceedsSendLamport) {
  Trace trace;
  DebugShim::Options options;
  options.trace_sink = trace.sink();
  Topology topology = pair_topology();
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Instrumented>());
  users.push_back(std::make_unique<Instrumented>());
  Simulation sim(topology, wrap_in_shims(topology, std::move(users), options));
  sim.run_until_quiescent();

  std::map<std::uint64_t, std::uint64_t> send_lamport;
  for (const LocalEvent& event : trace.events()) {
    if (event.kind == LocalEventKind::kMessageSent) {
      send_lamport[event.message_id] = event.lamport;
    }
  }
  bool checked = false;
  for (const LocalEvent& event : trace.events()) {
    if (event.kind == LocalEventKind::kMessageReceived) {
      ASSERT_TRUE(send_lamport.contains(event.message_id));
      EXPECT_GT(event.lamport, send_lamport[event.message_id]);
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(DebugShim, VectorClockStampingCanBeDisabled) {
  Trace trace;
  DebugShim::Options options;
  options.trace_sink = trace.sink();
  options.stamp_vector_clocks = false;
  Topology topology = pair_topology();
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Instrumented>());
  users.push_back(std::make_unique<Instrumented>());

  obs::TotalsSnapshot stats_with;
  {
    Simulation sim(topology,
                   wrap_in_shims(topology, std::move(users), options));
    sim.run_until_quiescent();
    stats_with = sim.metrics().totals();
  }
  // With stamping on, the app message carries the clock -> more bytes.
  std::vector<ProcessPtr> users2;
  users2.push_back(std::make_unique<Instrumented>());
  users2.push_back(std::make_unique<Instrumented>());
  DebugShim::Options options2;
  options2.stamp_vector_clocks = true;
  Simulation sim2(topology, wrap_in_shims(topology, std::move(users2),
                                          options2));
  sim2.run_until_quiescent();
  EXPECT_GT(sim2.metrics().totals().bytes_sent, stats_with.bytes_sent);
}

TEST(DebugShim, VarTableTracksLatestValue) {
  Topology topology = pair_topology();
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Instrumented>());
  users.push_back(std::make_unique<Instrumented>());
  Simulation sim(topology, wrap_in_shims(topology, std::move(users)));
  sim.run_until_quiescent();
  auto& shim0 = dynamic_cast<DebugShim&>(sim.process(ProcessId(0)));
  auto& shim1 = dynamic_cast<DebugShim&>(sim.process(ProcessId(1)));
  EXPECT_EQ(shim0.var("x"), 1);
  EXPECT_EQ(shim1.var("x"), 1);  // payload size of the received message
  EXPECT_EQ(shim0.var("missing"), 0);
}

TEST(DebugShim, ReplayReleaseOnForeignChannelIsADivergence) {
  // Replay channel ids come from a log.  One that is not incoming to the
  // process (its own out-channel, or no channel at all) must count a
  // divergence, never index the per-in-channel ordinals.
  Topology topology = pair_topology();  // channel 0: p0 -> p1
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Instrumented>());
  users.push_back(std::make_unique<Instrumented>());
  DebugShim::Options options;
  options.replay_gate = true;
  Simulation sim(topology, wrap_in_shims(topology, std::move(users), options));
  sim.run_until_quiescent();
  auto& shim0 = dynamic_cast<DebugShim&>(sim.process(ProcessId(0)));
  auto& shim1 = dynamic_cast<DebugShim&>(sim.process(ProcessId(1)));
  ASSERT_EQ(shim1.replay_gate_depth(ChannelId(0)), 1u);

  bool released_out = true;
  bool released_unknown = true;
  sim.post(ProcessId(0), [&](ProcessContext& ctx, Process&) {
    released_out = shim0.replay_release(ctx, ChannelId(0), 0, 0);
    released_unknown = shim0.replay_release(ctx, ChannelId(99), 0, 0);
  });
  sim.run_until_quiescent();
  EXPECT_FALSE(released_out);
  EXPECT_FALSE(released_unknown);
  EXPECT_EQ(sim.metrics().snapshot(sim.now()).replay.divergences, 2u);
  EXPECT_EQ(shim0.replay_deliveries(ChannelId(0)), 0u);
  EXPECT_EQ(shim0.replay_deliveries(ChannelId(99)), 0u);

  // The gated message on p1's real in-channel still releases cleanly.
  const Bytes payload{42};
  bool released_in = false;
  sim.post(ProcessId(1), [&](ProcessContext& ctx, Process&) {
    released_in = shim1.replay_release(
        ctx, ChannelId(0), 0,
        replay_payload_hash(std::span<const std::uint8_t>(payload)));
  });
  sim.run_until_quiescent();
  EXPECT_TRUE(released_in);
  EXPECT_EQ(shim1.replay_deliveries(ChannelId(0)), 1u);
  EXPECT_EQ(sim.metrics().snapshot(sim.now()).replay.divergences, 2u);
}

TEST(DebugShim, SnapshotDelegatesToUser) {
  Topology topology = pair_topology();
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Instrumented>());
  users.push_back(std::make_unique<Instrumented>());
  Simulation sim(topology, wrap_in_shims(topology, std::move(users)));
  sim.run_until_quiescent();
  auto& shim = dynamic_cast<DebugShim&>(sim.process(ProcessId(0)));
  EXPECT_EQ(shim.snapshot_state(), Bytes{7});
  EXPECT_EQ(shim.describe_state(), "inst");
}

TEST(DebugShim, StopSelfEmitsTerminatedEvent) {
  class Stopper final : public Debuggable {
   public:
    void on_start(ProcessContext& ctx) override { ctx.stop_self(); }
    void on_message(ProcessContext&, ChannelId, Message) override {}
  };
  Trace trace;
  DebugShim::Options options;
  options.trace_sink = trace.sink();
  Topology topology(1);
  std::vector<ProcessPtr> users;
  users.push_back(std::make_unique<Stopper>());
  Simulation sim(topology, wrap_in_shims(topology, std::move(users), options));
  sim.run_until_quiescent();
  bool terminated = false;
  for (const LocalEvent& event : trace.events()) {
    if (event.kind == LocalEventKind::kProcessTerminated) terminated = true;
  }
  EXPECT_TRUE(terminated);
}

TEST(DebugShim, UninstrumentedRunHasNoDebugApiEffects) {
  // A Debuggable process without a shim: debug() calls are no-ops.
  Topology topology = pair_topology();
  testing::FakeContext ctx(ProcessId(1), &topology);
  Instrumented bare;
  bare.on_message(ctx, ChannelId(0), Message::application(Bytes{1, 2, 3}));
  SUCCEED();  // no crash: the null DebugApi swallowed the calls
}

TEST(DebugShim, HaltsViaBreakpointOnUserEvent) {
  TokenRingConfig ring_config;
  ring_config.rounds = 100;
  SimDebugHarness harness(Topology::ring(3), make_token_ring(3, ring_config));
  ASSERT_TRUE(harness.session().set_breakpoint("p0:enter(forward_token)").ok());
  auto wave = harness.session().wait_for_halt(Duration::seconds(30));
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(harness.shim(ProcessId(0)).halted());
}

TEST(DebugShim, ArmedWatchCountTracksDisarm) {
  GossipConfig gossip;
  SimDebugHarness harness(Topology::ring(3), make_gossip(3, gossip));
  auto bp = harness.session().set_breakpoint("p0:event(never)");
  ASSERT_TRUE(bp.ok());
  harness.sim().run_for(Duration::millis(20));
  EXPECT_EQ(harness.shim(ProcessId(0)).armed_watches(), 1u);
  harness.session().clear_breakpoint(bp.value());
  harness.sim().run_for(Duration::millis(20));
  EXPECT_EQ(harness.shim(ProcessId(0)).armed_watches(), 0u);
}

// Byte-level pin of the trace stream the shim hands its sink: FNV-1a over
// every event's kind, process, channel, lamport, local_seq and vector
// clock, in sink order, then every breakpoint-hit text.  A vector-clock
// ring with a linked breakpoint that fires, halts and resumes covers the
// send, receive and state-change emits, the detector's forwards and hits,
// and the replay of buffered messages on resume.  Captured before the shim
// moved events into the sink instead of copying them.
TEST(DebugShim, TraceStreamMatchesPinnedHash) {
  constexpr std::uint64_t kPinnedHash = 1503460496894672824ULL;
  const auto run = [](std::uint32_t workers) {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= static_cast<std::uint8_t>(v >> (8 * i));
        h *= 1099511628211ULL;
      }
    };
    std::uint64_t events = 0;
    HarnessConfig config;
    config.seed = 13;
    config.workers = workers;
    config.latency = std::make_unique<ConstantLatency>(Duration::millis(1));
    config.shim_options.trace_sink = [&](const LocalEvent& event) {
      ++events;
      mix(static_cast<std::uint64_t>(event.kind));
      mix(event.process.value());
      mix(event.channel.value());
      mix(event.lamport);
      mix(event.local_seq);
      mix(event.vclock.size());
      for (std::uint32_t i = 0; i < event.vclock.size(); ++i) {
        mix(event.vclock.at(ProcessId(i)));
      }
    };
    SimDebugHarness harness(Topology::ring(4), make_gossip(4, GossipConfig{}),
                            std::move(config));
    EXPECT_TRUE(harness.session()
                    .set_breakpoint("p1:received>=5 -> p3:sent>=9")
                    .ok());
    auto wave = harness.session().wait_for_halt(Duration::seconds(30));
    EXPECT_TRUE(wave.has_value());
    EXPECT_TRUE(harness.session().resume());
    harness.sim().run_for(Duration::millis(20));
    const auto hits = harness.session().hits();
    EXPECT_EQ(hits.size(), 1u);
    for (const auto& hit : hits) {
      mix(hit.description.size());
      for (const char c : hit.description) mix(static_cast<std::uint8_t>(c));
    }
    EXPECT_GT(events, 100u);
    return h;
  };
  const std::uint64_t seq = run(1);
  const std::uint64_t par = run(4);
  EXPECT_EQ(seq, par);
  EXPECT_EQ(seq, kPinnedHash) << "workers=1";
  EXPECT_EQ(par, kPinnedHash) << "workers=4";
}

}  // namespace
}  // namespace ddbg
