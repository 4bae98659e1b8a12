// Direct unit tests of the HaltingEngine and SnapshotEngine state machines
// (marker rules, wave ids, channel-state assembly, resume) using a fake
// context — no runtime involved.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "core/global_state.hpp"
#include "core/halting.hpp"
#include "core/snapshot.hpp"
#include "net/replay_hooks.hpp"
#include "tests/test_util.hpp"

namespace ddbg {
namespace {

using testing::FakeContext;

// p0 <-> p1 <-> p2 ring: each process one in, one out.
struct RingFixture {
  Topology topology = Topology::ring(3);
  ProcessId self{1};
  FakeContext ctx{ProcessId(1), &topology};

  std::vector<HaltId> halts;
  std::vector<ProcessSnapshot> completions;
  int captures = 0;

  HaltingEngine make_engine() {
    return HaltingEngine(
        self, &topology,
        HaltingEngine::Callbacks{
            [this] {
              ++captures;
              ProcessSnapshot snapshot;
              snapshot.process = self;
              snapshot.state = Bytes{static_cast<std::uint8_t>(captures)};
              snapshot.description = "capture" + std::to_string(captures);
              return snapshot;
            },
            [this](HaltId id, const std::vector<ProcessId>&) {
              halts.push_back(id);
            },
            [this](const ProcessSnapshot& snapshot) {
              completions.push_back(snapshot);
            }});
  }

  [[nodiscard]] ChannelId in_channel() const {
    return topology.in_channels(self)[0];  // from p0
  }
  [[nodiscard]] ChannelId out_channel() const {
    return topology.out_channels(self)[0];  // to p2
  }
};

TEST(HaltingEngine, SpontaneousInitiationSendsMarkersAndHalts) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  EXPECT_FALSE(engine.halted());
  EXPECT_EQ(engine.last_halt_id(), 0u);

  engine.initiate(fx.ctx);
  EXPECT_TRUE(engine.halted());
  EXPECT_EQ(engine.last_halt_id(), 1u);
  const auto markers = fx.ctx.halt_markers();
  ASSERT_EQ(markers.size(), 1u);  // one outgoing channel
  EXPECT_EQ(markers[0].first, fx.out_channel());
  EXPECT_EQ(markers[0].second.halt_id, HaltId(1));
  // Section 2.2.4: the marker carries the initiator's name.
  ASSERT_EQ(markers[0].second.halt_path.size(), 1u);
  EXPECT_EQ(markers[0].second.halt_path[0], fx.self);
  ASSERT_EQ(fx.halts.size(), 1u);
  EXPECT_EQ(fx.halts[0], HaltId(1));
}

TEST(HaltingEngine, InitiateTwiceIsIdempotent) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);
  engine.initiate(fx.ctx);
  EXPECT_EQ(engine.last_halt_id(), 1u);
  EXPECT_EQ(fx.ctx.halt_markers().size(), 1u);
  EXPECT_EQ(fx.captures, 1);
}

TEST(HaltingEngine, MarkerReceiptAdoptsWaveAndForwards) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.on_halt_marker(fx.ctx, fx.in_channel(),
                        HaltMarkerData{HaltId(3), {ProcessId(0)}});
  EXPECT_TRUE(engine.halted());
  EXPECT_EQ(engine.last_halt_id(), 3u);
  const auto markers = fx.ctx.halt_markers();
  ASSERT_EQ(markers.size(), 1u);
  EXPECT_EQ(markers[0].second.halt_id, HaltId(3));
  // Path extended with our own name.
  ASSERT_EQ(markers[0].second.halt_path.size(), 2u);
  EXPECT_EQ(markers[0].second.halt_path[0], ProcessId(0));
  EXPECT_EQ(markers[0].second.halt_path[1], fx.self);
  // The first marker's channel is empty; with one in-channel the local
  // snapshot is immediately complete.  Channel states are sparse: an empty
  // channel records no entry at all.
  ASSERT_EQ(fx.completions.size(), 1u);
  EXPECT_TRUE(fx.completions[0].in_channels.empty());
  EXPECT_EQ(fx.completions[0].halt_path.size(), 1u);
}

TEST(HaltingEngine, StaleMarkerIgnored) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.on_halt_marker(fx.ctx, fx.in_channel(), HaltMarkerData{HaltId(2), {}});
  const auto resume = engine.resume();
  EXPECT_FALSE(engine.halted());
  fx.ctx.sent.clear();
  // A marker for an old wave must be ignored entirely.
  engine.on_halt_marker(fx.ctx, fx.in_channel(), HaltMarkerData{HaltId(1), {}});
  engine.on_halt_marker(fx.ctx, fx.in_channel(), HaltMarkerData{HaltId(2), {}});
  EXPECT_FALSE(engine.halted());
  EXPECT_TRUE(fx.ctx.sent.empty());
}

TEST(HaltingEngine, ChannelStateRecordsPreMarkerMessages) {
  // Two in-channels: p0->p1 (ring) plus an extra p2->p1 channel.
  Topology topology = Topology::ring(3);
  const ChannelId extra = topology.add_channel(ProcessId(2), ProcessId(1));
  FakeContext ctx(ProcessId(1), &topology);
  std::vector<ProcessSnapshot> completions;
  HaltingEngine engine(
      ProcessId(1), &topology,
      HaltingEngine::Callbacks{[] { return ProcessSnapshot{}; },
                               nullptr,
                               [&](const ProcessSnapshot& snapshot) {
                                 completions.push_back(snapshot);
                               }});
  const ChannelId ring_in = topology.in_channels(ProcessId(1))[0];

  engine.initiate(ctx);
  // Messages arriving before each channel's marker belong to the channel
  // state (Lemma 2.2).
  EXPECT_TRUE(engine.intercept_message(ring_in,
                                       Message::application(Bytes{1})));
  EXPECT_TRUE(engine.intercept_message(extra, Message::application(Bytes{2})));
  EXPECT_TRUE(engine.intercept_message(extra, Message::application(Bytes{3})));
  EXPECT_TRUE(completions.empty());

  engine.on_halt_marker(ctx, ring_in, HaltMarkerData{HaltId(1), {}});
  EXPECT_TRUE(completions.empty());  // extra channel still open
  // Post-marker traffic on ring_in is NOT channel state.
  EXPECT_TRUE(engine.intercept_message(ring_in,
                                       Message::application(Bytes{9})));

  engine.on_halt_marker(ctx, extra, HaltMarkerData{HaltId(1), {}});
  ASSERT_EQ(completions.size(), 1u);
  const ProcessSnapshot& snapshot = completions[0];
  ASSERT_EQ(snapshot.in_channels.size(), 2u);
  std::size_t ring_slot =
      snapshot.in_channels[0].channel == ring_in ? 0 : 1;
  EXPECT_EQ(snapshot.in_channels[ring_slot].messages,
            (std::vector<Bytes>{{1}}));
  EXPECT_EQ(snapshot.in_channels[1 - ring_slot].messages,
            (std::vector<Bytes>{{2}, {3}}));
}

TEST(HaltingEngine, ResumeReturnsBufferedInArrivalOrder) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);
  EXPECT_TRUE(
      engine.intercept_message(fx.in_channel(), Message::application(Bytes{1})));
  EXPECT_TRUE(
      engine.intercept_message(fx.in_channel(), Message::application(Bytes{2})));
  EXPECT_TRUE(engine.intercept_timer(TimerId(7)));

  const auto resume = engine.resume();
  EXPECT_FALSE(engine.halted());
  ASSERT_EQ(resume.messages.size(), 2u);
  EXPECT_EQ(resume.messages[0].second.payload, Bytes{1});
  EXPECT_EQ(resume.messages[1].second.payload, Bytes{2});
  ASSERT_EQ(resume.timers.size(), 1u);
  EXPECT_EQ(resume.timers[0], TimerId(7));
  // After resume the engine intercepts nothing.
  EXPECT_FALSE(
      engine.intercept_message(fx.in_channel(), Message::application(Bytes{3})));
  EXPECT_FALSE(engine.intercept_timer(TimerId(8)));
}

TEST(HaltingEngine, NewWaveAfterResumeGetsHigherId) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);
  (void)engine.resume();
  engine.initiate(fx.ctx);
  EXPECT_EQ(engine.last_halt_id(), 2u);
  const auto markers = fx.ctx.halt_markers();
  ASSERT_EQ(markers.size(), 2u);
  EXPECT_EQ(markers[1].second.halt_id, HaltId(2));
}

TEST(HaltingEngine, RunningProcessInterceptsNothing) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  EXPECT_FALSE(
      engine.intercept_message(fx.in_channel(), Message::application({})));
  EXPECT_FALSE(engine.intercept_timer(TimerId(1)));
}

TEST(HaltingEngine, LaterWaveMarkerBufferedWhileHalted) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);  // wave 1
  // Anything offered to intercept_message while halted stays "in the
  // channel" and comes back on resume — the generic buffering contract,
  // whatever the message kind.  (The shim itself routes later-wave markers
  // to on_halt_marker, which adopts the wave; see the tests below.)
  Message marker = Message::halt_marker(HaltId(2), {ProcessId(0)});
  EXPECT_TRUE(engine.intercept_message(fx.in_channel(), marker));
  const auto resume = engine.resume();
  ASSERT_EQ(resume.messages.size(), 1u);
  EXPECT_EQ(resume.messages[0].second.kind, MessageKind::kHaltMarker);
}

// Two initiators race: a wave-2 marker reaches a process already halted in
// wave 1.  The engine must adopt the newer wave — not re-enter the Halt
// Routine (which asserts against double entry) and not wedge the marker.
TEST(HaltingEngine, NewerWaveMarkerWhileHaltedAdoptsWave) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);  // wave 1: spontaneous halt
  ASSERT_TRUE(engine.halted());
  ASSERT_EQ(fx.captures, 1);

  engine.on_halt_marker(fx.ctx, fx.in_channel(),
                        HaltMarkerData{HaltId(2), {ProcessId(0)}});

  EXPECT_TRUE(engine.halted());
  EXPECT_EQ(engine.last_halt_id(), 2u);
  // State was captured once, at the original halt instant: nothing ran
  // in between, so the wave-1 capture stands for wave 2.
  EXPECT_EQ(fx.captures, 1);
  // Both waves announced through on_halt...
  ASSERT_EQ(fx.halts.size(), 2u);
  EXPECT_EQ(fx.halts[0], HaltId(1));
  EXPECT_EQ(fx.halts[1], HaltId(2));
  // ...and both forwarded markers, the second with the new wave id and the
  // initiator's path extended with our own name.
  const auto markers = fx.ctx.halt_markers();
  ASSERT_EQ(markers.size(), 2u);
  EXPECT_EQ(markers[0].second.halt_id, HaltId(1));
  EXPECT_EQ(markers[1].second.halt_id, HaltId(2));
  ASSERT_EQ(markers[1].second.halt_path.size(), 2u);
  EXPECT_EQ(markers[1].second.halt_path[0], ProcessId(0));
  EXPECT_EQ(markers[1].second.halt_path[1], fx.self);
  // The marker's channel closed wave 2's recording; with one in-channel
  // the local snapshot is complete, for wave 2 only.
  ASSERT_EQ(fx.completions.size(), 1u);
  EXPECT_EQ(fx.completions[0].halt_path.size(), 1u);
  EXPECT_EQ(fx.completions[0].halt_path[0], ProcessId(0));
}

TEST(HaltingEngine, AdoptedWaveReseedsChannelStateFromBufferedMessages) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);  // wave 1
  // An application message arrives while halted: logically in the channel.
  Message app = Message::application(Bytes{0x42});
  EXPECT_TRUE(engine.intercept_message(fx.in_channel(), app));

  engine.on_halt_marker(fx.ctx, fx.in_channel(),
                        HaltMarkerData{HaltId(2), {ProcessId(0)}});

  // Wave 2's channel state includes the buffered message: it was in the
  // channel before wave 2's marker (Lemma 2.2).
  ASSERT_EQ(fx.completions.size(), 1u);
  ASSERT_EQ(fx.completions[0].in_channels.size(), 1u);
  ASSERT_EQ(fx.completions[0].in_channels[0].messages.size(), 1u);
  EXPECT_EQ(fx.completions[0].in_channels[0].messages[0], Bytes{0x42});
  // Resume still replays it to the application exactly once.
  const auto resume = engine.resume();
  ASSERT_EQ(resume.messages.size(), 1u);
  EXPECT_EQ(resume.messages[0].first, fx.in_channel());
  EXPECT_EQ(resume.messages[0].second.kind, MessageKind::kApplication);
}

TEST(HaltingEngine, CompletionReportedOnce) {
  RingFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.on_halt_marker(fx.ctx, fx.in_channel(), HaltMarkerData{HaltId(1), {}});
  EXPECT_EQ(fx.completions.size(), 1u);
  // Duplicate same-wave marker does not re-report.
  engine.on_halt_marker(fx.ctx, fx.in_channel(), HaltMarkerData{HaltId(1), {}});
  EXPECT_EQ(fx.completions.size(), 1u);
}

TEST(HaltingEngine, ProcessWithNoChannelsCompletesImmediately) {
  Topology topology(2);
  topology.add_channel(ProcessId(0), ProcessId(1));
  FakeContext ctx(ProcessId(0), &topology);  // p0: out only, no in
  std::vector<ProcessSnapshot> completions;
  HaltingEngine engine(
      ProcessId(0), &topology,
      HaltingEngine::Callbacks{[] { return ProcessSnapshot{}; },
                               nullptr,
                               [&](const ProcessSnapshot& snapshot) {
                                 completions.push_back(snapshot);
                               }});
  engine.initiate(ctx);
  EXPECT_EQ(completions.size(), 1u);
}

// ---- SnapshotEngine ----

struct SnapshotFixture {
  Topology topology = Topology::ring(3);
  ProcessId self{1};
  FakeContext ctx{ProcessId(1), &topology};
  std::vector<ProcessSnapshot> completions;
  int captures = 0;

  SnapshotEngine make_engine() {
    return SnapshotEngine(
        self, &topology,
        SnapshotEngine::Callbacks{
            [this] {
              ++captures;
              ProcessSnapshot snapshot;
              snapshot.process = self;
              return snapshot;
            },
            [this](const ProcessSnapshot& snapshot) {
              completions.push_back(snapshot);
            }});
  }

  [[nodiscard]] ChannelId in_channel() const {
    return topology.in_channels(self)[0];
  }
};

TEST(SnapshotEngine, InitiateRecordsAndSendsMarkers) {
  SnapshotFixture fx;
  SnapshotEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);
  EXPECT_TRUE(engine.recording());
  EXPECT_EQ(fx.captures, 1);
  ASSERT_EQ(fx.ctx.sent.size(), 1u);
  EXPECT_EQ(fx.ctx.sent[0].second.kind, MessageKind::kSnapshotMarker);
  EXPECT_EQ(fx.ctx.sent[0].second.snapshot->snapshot_id, 1u);
}

TEST(SnapshotEngine, RecordsChannelUntilMarker) {
  SnapshotFixture fx;
  SnapshotEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);
  engine.observe_app_message(fx.in_channel(), Message::application(Bytes{5}));
  engine.on_marker(fx.ctx, fx.in_channel(), SnapshotMarkerData{1});
  ASSERT_EQ(fx.completions.size(), 1u);
  ASSERT_EQ(fx.completions[0].in_channels.size(), 1u);
  EXPECT_EQ(fx.completions[0].in_channels[0].messages,
            (std::vector<Bytes>{{5}}));
  EXPECT_FALSE(engine.recording());
}

TEST(SnapshotEngine, FirstMarkerMeansEmptyChannel) {
  SnapshotFixture fx;
  SnapshotEngine engine = fx.make_engine();
  engine.on_marker(fx.ctx, fx.in_channel(), SnapshotMarkerData{4});
  ASSERT_EQ(fx.completions.size(), 1u);
  // Sparse channel states: an empty channel records no entry at all.
  EXPECT_TRUE(fx.completions[0].in_channels.empty());
  EXPECT_EQ(engine.last_snapshot_id(), 4u);
}

TEST(SnapshotEngine, PostMarkerTrafficNotRecorded) {
  SnapshotFixture fx;
  SnapshotEngine engine = fx.make_engine();
  engine.on_marker(fx.ctx, fx.in_channel(), SnapshotMarkerData{1});
  engine.observe_app_message(fx.in_channel(), Message::application(Bytes{9}));
  ASSERT_EQ(fx.completions.size(), 1u);
  EXPECT_TRUE(fx.completions[0].in_channels.empty());
}

TEST(SnapshotEngine, SequentialWaves) {
  SnapshotFixture fx;
  SnapshotEngine engine = fx.make_engine();
  engine.on_marker(fx.ctx, fx.in_channel(), SnapshotMarkerData{1});
  engine.on_marker(fx.ctx, fx.in_channel(), SnapshotMarkerData{2});
  EXPECT_EQ(fx.completions.size(), 2u);
  EXPECT_EQ(engine.last_snapshot_id(), 2u);
  // Stale wave ignored.
  engine.on_marker(fx.ctx, fx.in_channel(), SnapshotMarkerData{1});
  EXPECT_EQ(fx.completions.size(), 2u);
}

TEST(SnapshotEngine, ObserveWhileIdleIsNoop) {
  SnapshotFixture fx;
  SnapshotEngine engine = fx.make_engine();
  engine.observe_app_message(fx.in_channel(), Message::application(Bytes{1}));
  EXPECT_FALSE(engine.recording());
  EXPECT_TRUE(fx.completions.empty());
}

// ---------------------------------------------------------------------------
// Per-in-channel slots on a dense in-degree: Topology::complete(32) with a
// flat debugger gives every user process 31 application in-channels plus
// one control in-channel.
// ---------------------------------------------------------------------------

struct CompleteFixture {
  Topology topology = Topology::complete(32).with_debugger();
  ProcessId self{5};
  FakeContext ctx{ProcessId(5), &topology};
  std::vector<ProcessSnapshot> completions;

  HaltingEngine make_engine() {
    return HaltingEngine(
        self, &topology,
        HaltingEngine::Callbacks{[this] {
                                   ProcessSnapshot snapshot;
                                   snapshot.process = self;
                                   snapshot.state = Bytes{7, 7};
                                   snapshot.description = "complete32";
                                   return snapshot;
                                 },
                                 nullptr,
                                 [this](const ProcessSnapshot& snapshot) {
                                   completions.push_back(snapshot);
                                 }});
  }

  [[nodiscard]] std::vector<ChannelId> in() const {
    const auto span = topology.in_channels(self);
    return {span.begin(), span.end()};
  }
  // The in-channels in a fixed scrambled order (37 is coprime to 32).
  [[nodiscard]] std::vector<ChannelId> scrambled() const {
    const std::vector<ChannelId> channels = in();
    std::vector<ChannelId> out;
    for (std::size_t k = 0; k < channels.size(); ++k) {
      out.push_back(channels[(k * 37 + 11) % channels.size()]);
    }
    return out;
  }
  // Deliver this wave's marker on every channel in `order` except those in
  // `skip`, checking complete() flips exactly on the last one.
  void close_all(HaltingEngine& engine, std::uint64_t wave,
                 const std::vector<ChannelId>& order,
                 const std::vector<ChannelId>& skip) {
    std::vector<ChannelId> pending;
    for (const ChannelId c : order) {
      if (std::find(skip.begin(), skip.end(), c) == skip.end()) {
        pending.push_back(c);
      }
    }
    const std::size_t before = completions.size();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      EXPECT_FALSE(engine.complete()) << "marker " << i;
      engine.on_halt_marker(ctx, pending[i], HaltMarkerData{HaltId(wave), {}});
    }
    EXPECT_TRUE(engine.complete());
    EXPECT_EQ(completions.size(), before + 1);
  }
};

[[nodiscard]] std::uint64_t encoded_hash(const ProcessSnapshot& snapshot) {
  GlobalState state(HaltId(1));
  state.add(snapshot);
  const Bytes bytes = state.encode_snapshots();
  return replay_payload_hash(std::span<const std::uint8_t>(bytes));
}

TEST(HaltingEngineSlots, CompleteFlipsExactlyOnLastMarker) {
  CompleteFixture fx;
  ASSERT_EQ(fx.in().size(), 32u);
  HaltingEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);
  const std::vector<ChannelId> order = fx.scrambled();
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    engine.on_halt_marker(fx.ctx, order[i], HaltMarkerData{HaltId(1), {}});
    // A repeated marker on a closed channel must not count twice.
    engine.on_halt_marker(fx.ctx, order[i], HaltMarkerData{HaltId(1), {}});
    EXPECT_FALSE(engine.complete()) << "after marker " << i;
  }
  EXPECT_TRUE(fx.completions.empty());
  engine.on_halt_marker(fx.ctx, order.back(), HaltMarkerData{HaltId(1), {}});
  EXPECT_TRUE(engine.complete());
  EXPECT_EQ(fx.completions.size(), 1u);
  engine.on_halt_marker(fx.ctx, order.front(), HaltMarkerData{HaltId(1), {}});
  EXPECT_EQ(fx.completions.size(), 1u);  // reported once
}

TEST(HaltingEngineSlots, RecordedChannelOrderIsFirstRecordedOrder) {
  CompleteFixture fx;
  HaltingEngine engine = fx.make_engine();
  engine.initiate(fx.ctx);
  const std::vector<ChannelId> in = fx.in();
  const ChannelId control = fx.topology.control_to(fx.self);
  // Sixty payloads over the application channels in a scrambled order;
  // three channels close part-way, so their later payloads are not state.
  std::vector<ChannelId> first_recorded;
  std::vector<ChannelId> closed;
  for (std::uint8_t k = 0; k < 60; ++k) {
    const ChannelId c = in[(k * 13u + 5u) % in.size()];
    if (c == control) continue;
    EXPECT_TRUE(engine.intercept_message(c, Message::application(Bytes{k})));
    const auto seen = [](const std::vector<ChannelId>& list, ChannelId x) {
      return std::find(list.begin(), list.end(), x) != list.end();
    };
    if (!seen(closed, c) && !seen(first_recorded, c)) {
      first_recorded.push_back(c);
    }
    if (k == 17 || k == 29 || k == 41) {
      engine.on_halt_marker(fx.ctx, c, HaltMarkerData{HaltId(1), {}});
      closed.push_back(c);
    }
  }
  fx.close_all(engine, 1, fx.scrambled(), closed);
  ASSERT_EQ(fx.completions.size(), 1u);
  const ProcessSnapshot& snapshot = fx.completions.back();
  std::vector<ChannelId> recorded;
  for (const ChannelState& state : snapshot.in_channels) {
    recorded.push_back(state.channel);
  }
  EXPECT_EQ(recorded, first_recorded);
  // S_h bytes, captured before the channel records moved to dense slots.
  EXPECT_EQ(encoded_hash(snapshot), 17365311518416196425ULL);
}

TEST(HaltingEngineSlots, AdoptedWaveRestartsEverySlot) {
  CompleteFixture fx;
  HaltingEngine engine = fx.make_engine();
  const std::vector<ChannelId> in = fx.in();
  engine.initiate(fx.ctx);
  // Wave 1: payloads on in[2] and in[9], then half the markers.
  EXPECT_TRUE(engine.intercept_message(in[9], Message::application(Bytes{1})));
  EXPECT_TRUE(engine.intercept_message(in[2], Message::application(Bytes{2})));
  for (std::size_t i = 0; i < 16; ++i) {
    engine.on_halt_marker(fx.ctx, in[i], HaltMarkerData{HaltId(1), {}});
  }
  // Post-marker traffic on in[2]: buffered, not wave-1 channel state.
  EXPECT_TRUE(engine.intercept_message(in[2], Message::application(Bytes{3})));
  ASSERT_EQ(engine.snapshot().in_channels.size(), 2u);

  // A newer wave arrives on in[20] while halted: every buffered payload is
  // still in its channel, so it seeds wave 2's records in buffered order,
  // and only in[20] is closed.
  engine.on_halt_marker(fx.ctx, in[20], HaltMarkerData{HaltId(2), {}});
  EXPECT_EQ(engine.current_wave(), HaltId(2));
  EXPECT_FALSE(engine.complete());
  const ProcessSnapshot& adopted = engine.snapshot();
  ASSERT_EQ(adopted.in_channels.size(), 2u);
  EXPECT_EQ(adopted.in_channels[0].channel, in[9]);
  EXPECT_EQ(adopted.in_channels[0].messages, (std::vector<Bytes>{{1}}));
  EXPECT_EQ(adopted.in_channels[1].channel, in[2]);
  EXPECT_EQ(adopted.in_channels[1].messages,
            (std::vector<Bytes>{{2}, {3}}));

  // Late wave-1 markers are ignored: they close nothing in wave 2.
  for (std::size_t i = 16; i < in.size(); ++i) {
    engine.on_halt_marker(fx.ctx, in[i], HaltMarkerData{HaltId(1), {}});
  }
  EXPECT_FALSE(engine.complete());
  EXPECT_TRUE(fx.completions.empty());
  // in[2] was closed in wave 1 but is open again in wave 2.
  EXPECT_TRUE(engine.intercept_message(in[2], Message::application(Bytes{4})));
  fx.close_all(engine, 2, fx.scrambled(), {in[20]});
  ASSERT_EQ(fx.completions.size(), 1u);
  EXPECT_EQ(fx.completions[0].in_channels[1].messages,
            (std::vector<Bytes>{{2}, {3}, {4}}));
}

TEST(HaltingEngineSlots, NothingSurvivesIntoTheNextWave) {
  CompleteFixture fx;
  HaltingEngine engine = fx.make_engine();
  const std::vector<ChannelId> in = fx.in();
  engine.initiate(fx.ctx);
  EXPECT_TRUE(engine.intercept_message(in[4], Message::application(Bytes{1})));
  EXPECT_TRUE(engine.intercept_message(in[7], Message::application(Bytes{2})));
  fx.close_all(engine, 1, fx.scrambled(), {});
  ASSERT_EQ(fx.completions.size(), 1u);
  EXPECT_EQ(fx.completions[0].in_channels.size(), 2u);
  const auto resumed = engine.resume();
  EXPECT_EQ(resumed.messages.size(), 2u);

  // Wave 2 enters through a marker on in[7].  Had a done bit survived, the
  // wave would complete early; had a record survived, in[4]/in[7] would
  // reappear in the channel state.
  engine.on_halt_marker(fx.ctx, in[7], HaltMarkerData{HaltId(2), {}});
  EXPECT_TRUE(engine.halted());
  EXPECT_FALSE(engine.complete());
  EXPECT_TRUE(engine.snapshot().in_channels.empty());
  EXPECT_TRUE(engine.intercept_message(in[9], Message::application(Bytes{5})));
  EXPECT_TRUE(engine.intercept_message(in[7], Message::application(Bytes{6})));
  fx.close_all(engine, 2, fx.scrambled(), {in[7]});
  ASSERT_EQ(fx.completions.size(), 2u);
  const ProcessSnapshot& second = fx.completions[1];
  ASSERT_EQ(second.in_channels.size(), 1u);  // in[7] closed at halt
  EXPECT_EQ(second.in_channels[0].channel, in[9]);
  EXPECT_EQ(second.in_channels[0].messages, (std::vector<Bytes>{{5}}));
}

}  // namespace
}  // namespace ddbg
