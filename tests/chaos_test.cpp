// Chaos tests: the fault-injection adversary (net/fault_plan.hpp) against
// the reliability layer (net/reliable.hpp) on all three substrates.
//
// The claim under test is the one the paper takes as an axiom (section
// 2.1): channels are reliable, FIFO and unbounded.  With a FaultPlan
// dropping, duplicating, reordering, delaying and resetting transmissions,
// the algorithms above the transport — token circulation, halting waves,
// C&L snapshots, linked-predicate detection — must reach exactly the same
// verdicts as on a clean transport, and the vector-clock consistency
// checks (analysis/consistency) must keep holding on every halted state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "analysis/consistency.hpp"
#include "core/debug_shim.hpp"
#include "debugger/debugger_process.hpp"
#include "debugger/harness.hpp"
#include "debugger/session.hpp"
#include "net/fault_plan.hpp"
#include "net/reliable.hpp"
#include "net/reliable_link.hpp"
#include "net/replay_hooks.hpp"
#include "net/transport_hooks.hpp"
#include "obs/metrics.hpp"
#include "runtime/runtime.hpp"
#include "runtime/tcp_runtime.hpp"
#include "sim/simulation.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

constexpr Duration kWait = Duration::seconds(30);

// A mixed adversary: every non-reset kind at once.  Probabilities are high
// enough that a few dozen sends are guaranteed (statistically, and pinned
// by the determinism test) to hit every kind.
FaultSpec mixed_spec() {
  FaultSpec spec;
  spec.drop = 0.10;
  spec.duplicate = 0.08;
  spec.reorder = 0.08;
  spec.delay = 0.08;
  return spec;
}

std::shared_ptr<FaultPlan> make_plan(FaultSpec spec, std::uint64_t seed) {
  return std::make_shared<FaultPlan>(spec, seed);
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(ChaosPlan, ParseFullSpec) {
  auto plan = FaultPlan::parse(
      "drop=0.05,dup=0.02,reorder=0.03,delay=0.05,reset=0.001,"
      "partition=200..260,reorder_delay=8ms,extra_delay=250us",
      42);
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  const FaultSpec& spec = plan.value().spec_for(ChannelId(0));
  EXPECT_DOUBLE_EQ(spec.drop, 0.05);
  EXPECT_DOUBLE_EQ(spec.duplicate, 0.02);
  EXPECT_DOUBLE_EQ(spec.reorder, 0.03);
  EXPECT_DOUBLE_EQ(spec.delay, 0.05);
  EXPECT_DOUBLE_EQ(spec.reset, 0.001);
  EXPECT_EQ(spec.partition_from, 200u);
  EXPECT_EQ(spec.partition_until, 260u);
  EXPECT_EQ(spec.reorder_delay, Duration::millis(8));
  EXPECT_EQ(spec.extra_delay, Duration::micros(250));
  EXPECT_EQ(plan.value().seed(), 42u);
}

TEST(ChaosPlan, ParseRejectsGarbage) {
  EXPECT_FALSE(FaultPlan::parse("drop=0.5,warp=0.1", 1).ok());
  EXPECT_FALSE(FaultPlan::parse("drop=not-a-number", 1).ok());
  EXPECT_FALSE(FaultPlan::parse("drop=0.7,dup=0.7", 1).ok());  // sum > 1
  EXPECT_FALSE(FaultPlan::parse("partition=9..3", 1).ok());
  EXPECT_FALSE(FaultPlan::parse("drop", 1).ok());
}

TEST(ChaosPlan, DecisionsAreDeterministicPerSeed) {
  FaultSpec spec = mixed_spec();
  spec.reset = 0.02;
  const FaultPlan a(spec, 7);
  const FaultPlan b(spec, 7);
  const FaultPlan c(spec, 8);
  bool any_difference_across_seeds = false;
  for (std::uint64_t attempt = 0; attempt < 512; ++attempt) {
    const auto da = a.decide(ChannelId(3), attempt);
    const auto db = b.decide(ChannelId(3), attempt);
    EXPECT_EQ(da.kind, db.kind) << "attempt " << attempt;
    EXPECT_EQ(da.extra_delay, db.extra_delay) << "attempt " << attempt;
    if (da.kind != c.decide(ChannelId(3), attempt).kind) {
      any_difference_across_seeds = true;
    }
  }
  EXPECT_TRUE(any_difference_across_seeds);
}

TEST(ChaosPlan, PartitionWindowDropsEveryAttemptInside) {
  FaultSpec spec;
  spec.partition_from = 10;
  spec.partition_until = 20;
  const FaultPlan plan(spec, 1);
  for (std::uint64_t attempt = 0; attempt < 30; ++attempt) {
    const auto decision = plan.decide(ChannelId(0), attempt);
    if (attempt >= 10 && attempt < 20) {
      EXPECT_EQ(decision.kind, FaultKind::kPartition) << attempt;
    } else {
      EXPECT_EQ(decision.kind, FaultKind::kNone) << attempt;
    }
  }
}

TEST(ChaosPlan, AckPathFacesOnlyDropAndDelay) {
  FaultSpec spec;
  spec.duplicate = 0.5;
  spec.reorder = 0.3;
  spec.reset = 0.2;
  const FaultPlan plan(spec, 11);
  for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
    EXPECT_EQ(plan.decide_ack(ChannelId(2), attempt).kind, FaultKind::kNone);
  }
}

TEST(ChaosPlan, PerChannelOverride) {
  FaultPlan plan(FaultSpec{}, 1);
  FaultSpec lossy;
  lossy.drop = 1.0;
  plan.set_channel(ChannelId(1), lossy);
  EXPECT_EQ(plan.decide(ChannelId(0), 0).kind, FaultKind::kNone);
  EXPECT_EQ(plan.decide(ChannelId(1), 0).kind, FaultKind::kDrop);
}

// ---------------------------------------------------------------------------
// ReliableSender / ReliableReceiver
// ---------------------------------------------------------------------------

Message numbered(std::uint32_t n) {
  ByteWriter writer;
  writer.u32(n);
  return Message::application(std::move(writer).take());
}

TEST(ChaosReliable, InOrderBurstDeliversAndRetires) {
  ReliableSender sender;
  ReliableReceiver receiver;
  std::vector<ReliableReceiver::Delivery> out;
  for (std::uint32_t i = 0; i < 5; ++i) {
    const std::uint64_t seq = sender.stage(numbered(i), i, TimePoint{0});
    EXPECT_EQ(seq, i + 1);
    EXPECT_EQ(receiver.on_frame(seq, numbered(i), i, out),
              ReliableReceiver::Accept::kDelivered);
  }
  ASSERT_EQ(out.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].seq, i + 1);
    EXPECT_EQ(out[i].meta, i);
  }
  EXPECT_EQ(receiver.cum_ack(), 5u);
  EXPECT_EQ(sender.ack(receiver.cum_ack()), 5u);
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_EQ(sender.peek(3), nullptr);
}

TEST(ChaosReliable, DuplicatesSuppressedReordersHeld) {
  ReliableReceiver receiver;
  std::vector<ReliableReceiver::Delivery> out;
  // seq 2 arrives early: held, nothing released, cum_ack unchanged.
  EXPECT_EQ(receiver.on_frame(2, numbered(2), 0, out),
            ReliableReceiver::Accept::kBuffered);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(receiver.cum_ack(), 0u);
  EXPECT_EQ(receiver.held(), 1u);
  // A second copy of the held frame is a duplicate, not a re-buffer.
  EXPECT_EQ(receiver.on_frame(2, numbered(2), 0, out),
            ReliableReceiver::Accept::kDuplicate);
  // seq 1 fills the gap: both release, in order.
  EXPECT_EQ(receiver.on_frame(1, numbered(1), 0, out),
            ReliableReceiver::Accept::kDelivered);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 1u);
  EXPECT_EQ(out[1].seq, 2u);
  EXPECT_EQ(receiver.cum_ack(), 2u);
  // Late duplicate of an already-released frame.
  EXPECT_EQ(receiver.on_frame(1, numbered(1), 0, out),
            ReliableReceiver::Accept::kDuplicate);
}

TEST(ChaosReliable, BackoffDoublesUpToCap) {
  ReliableConfig config;
  config.rto_initial = Duration::millis(25);
  config.rto_max = Duration::millis(400);
  ReliableSender sender(config);
  sender.stage(numbered(1), 0, TimePoint{0});
  ASSERT_TRUE(sender.next_deadline().has_value());
  EXPECT_EQ(sender.next_deadline()->ns, Duration::millis(25).ns);
  // Fire retransmissions at exactly each deadline; each fire doubles the
  // backoff, so the gap to the next deadline runs 50 -> 100 -> 200 -> 400
  // and then pins at the cap.
  TimePoint now{0};
  const std::int64_t expected[] = {50, 100, 200, 400, 400, 400};
  for (const std::int64_t gap_ms : expected) {
    now = *sender.next_deadline();
    const auto due = sender.due(now);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], 1u);
    ASSERT_TRUE(sender.next_deadline().has_value());
    EXPECT_EQ(sender.next_deadline()->ns - now.ns,
              Duration::millis(gap_ms).ns)
        << "after firing at " << now.ns;
  }
  // Not due again before the deadline.
  EXPECT_TRUE(sender.due(now).empty());
}

TEST(ChaosReliable, MarkAllDueReplaysTheWindow) {
  ReliableSender sender;
  for (std::uint32_t i = 0; i < 4; ++i) {
    sender.stage(numbered(i), 0, TimePoint{0});
  }
  ASSERT_EQ(sender.ack(2), 2u);
  EXPECT_EQ(sender.mark_all_due(TimePoint{1000}), 2u);
  const auto due = sender.due(TimePoint{1000});
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0], 3u);
  EXPECT_EQ(due[1], 4u);
}

TEST(ChaosReliable, HeaderRoundTrip) {
  RelHeader header;
  header.tag = RelHeader::kData;
  header.seq = 0x1122334455667788ULL;
  header.cum_ack = 0x99aabbccddeeff00ULL;
  ByteWriter writer;
  header.encode(writer);
  const Bytes wire = std::move(writer).take();
  EXPECT_EQ(wire.size(), kRelHeaderSize);
  ByteReader reader(wire);
  const auto decoded = RelHeader::decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().tag, header.tag);
  EXPECT_EQ(decoded.value().seq, header.seq);
  EXPECT_EQ(decoded.value().cum_ack, header.cum_ack);

  Bytes corrupt = wire;
  corrupt[0] = 0x7f;  // bad tag
  ByteReader bad(corrupt);
  EXPECT_FALSE(RelHeader::decode(bad).ok());
}

// ---------------------------------------------------------------------------
// Reliable links (net/reliable_link.hpp): the one fault policy
// ---------------------------------------------------------------------------

// Captures annotations; the link writes nothing else to a sink.
class AnnotationLog final : public ReplaySink {
 public:
  struct Entry {
    std::uint8_t kind;
    std::uint32_t channel;
    std::uint64_t detail;
    bool operator==(const Entry&) const = default;
  };
  void record_delivery(ProcessId, ChannelId, std::uint64_t, std::uint64_t,
                       std::uint64_t) override {}
  void record_timer_set(ProcessId, std::uint64_t, TimerId) override {}
  void record_timer_fire(ProcessId, std::uint64_t) override {}
  void record_halt_cut(std::uint64_t, Bytes) override {}
  void record_annotation(std::uint8_t kind, ChannelId channel,
                         std::uint64_t detail) override {
    entries.push_back(Entry{kind, channel.value(), detail});
  }
  std::vector<Entry> entries;
};

// One link's environment over a two-process ring: channel 1 is p1 -> p0.
struct LinkFixture {
  explicit LinkFixture(FaultSpec spec)
      : plan(spec, 1), metrics("test", 2, channel_meta(Topology::ring(2))) {
    env.plan = &plan;
    env.metrics = &metrics;
    env.replay = &log;
  }
  [[nodiscard]] obs::TransportSnapshot transport() const {
    return metrics.snapshot().transport;
  }

  static constexpr ChannelId kChannel{1};
  FaultPlan plan;
  obs::MetricsRegistry metrics;
  AnnotationLog log;
  LinkEnv env;
};

// Each data fault kind, drawn with certainty, hands the substrate its
// action and emits exactly one count and one annotation (naming the
// channel and the attempt).
TEST(ChaosLink, EachDataFaultHandsTheSubstrateItsAction) {
  struct Case {
    FaultKind kind;
    std::uint8_t copies;
    Duration extra_delay;
  };
  const Case cases[] = {
      {FaultKind::kNone, 1, Duration{0}},
      {FaultKind::kDrop, 0, Duration{0}},
      {FaultKind::kDuplicate, 2, Duration{0}},
      {FaultKind::kReorder, 1, Duration::millis(8)},
      {FaultKind::kDelay, 1, Duration::millis(3)},
      {FaultKind::kPartition, 0, Duration{0}},
      {FaultKind::kReset, 0, Duration{0}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(to_string(c.kind));
    FaultSpec spec;
    switch (c.kind) {
      case FaultKind::kDrop: spec.drop = 1.0; break;
      case FaultKind::kDuplicate: spec.duplicate = 1.0; break;
      case FaultKind::kReorder: spec.reorder = 1.0; break;
      case FaultKind::kDelay: spec.delay = 1.0; break;
      case FaultKind::kPartition: spec.partition_until = 10; break;
      case FaultKind::kReset: spec.reset = 1.0; break;
      case FaultKind::kNone: break;
    }
    LinkFixture fx(spec);
    LinkSender sender(fx.env, LinkFixture::kChannel);
    const std::uint64_t seq = sender.stage(numbered(7), 42, TimePoint{0});
    const auto tx = sender.transmit(seq);
    ASSERT_TRUE(tx.has_value());
    EXPECT_EQ(tx->attempt, 0u);
    ASSERT_NE(tx->frame, nullptr);
    EXPECT_EQ(tx->frame->meta, 42u);
    EXPECT_EQ(tx->copies, c.copies);
    EXPECT_EQ(tx->extra_delay, c.extra_delay);
    const bool reset = c.kind == FaultKind::kReset;
    EXPECT_EQ(tx->reset, reset);
    EXPECT_EQ(tx->redial, reset);

    const obs::TransportSnapshot t = fx.transport();
    for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
      const bool drawn =
          c.kind != FaultKind::kNone && k == fault_index(c.kind);
      EXPECT_EQ(t.faults_injected[k], drawn ? 1u : 0u) << "slot " << k;
    }
    EXPECT_EQ(t.channel_down, reset ? 1u : 0u);
    EXPECT_EQ(t.retransmits + t.dup_suppressed + t.reconnects +
                  t.resync_replayed,
              0u);
    std::vector<AnnotationLog::Entry> expected;
    if (c.kind != FaultKind::kNone) {
      expected.push_back(
          {static_cast<std::uint8_t>(fault_index(c.kind)), 1, 0});
    }
    EXPECT_EQ(fx.log.entries, expected);

    // The next attempt draws from the next slot of the same stream.  A
    // second reset while the first reconnect is pending asks for no
    // second redial.
    const auto again = sender.transmit(seq);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->attempt, 1u);
    EXPECT_FALSE(again->redial);
  }
}

TEST(ChaosLink, AckedFrameDrawsNoAttempt) {
  LinkFixture fx(mixed_spec());
  LinkSender sender(fx.env, LinkFixture::kChannel);
  const std::uint64_t first = sender.stage(numbered(1), 0, TimePoint{0});
  sender.ack(first);
  EXPECT_FALSE(sender.transmit(first).has_value());
  const std::uint64_t second = sender.stage(numbered(2), 0, TimePoint{0});
  const auto tx = sender.transmit(second);
  ASSERT_TRUE(tx.has_value());
  EXPECT_EQ(tx->attempt, 0u);
}

// A reconnect names the channel; the resync after it replays the whole
// window, counted and annotated once, and clears the pending reconnect.
TEST(ChaosLink, ReconnectResyncReplaysTheWindow) {
  FaultSpec spec;
  spec.reset = 1.0;
  LinkFixture fx(spec);
  LinkSender sender(fx.env, LinkFixture::kChannel);
  sender.resync(TimePoint{0});  // empty window: nothing to count or log
  EXPECT_EQ(fx.transport().resync_replayed, 0u);
  EXPECT_TRUE(fx.log.entries.empty());
  for (std::uint32_t i = 0; i < 3; ++i) {
    sender.stage(numbered(i), 0, TimePoint{0});
  }
  EXPECT_TRUE(sender.transmit(1)->redial);
  EXPECT_FALSE(sender.transmit(2)->redial);
  fx.log.entries.clear();

  fx.env.on_reconnect(LinkFixture::kChannel);
  sender.resync(TimePoint{5});
  EXPECT_EQ(sender.retransmits(TimePoint{5}).size(), 3u);
  const obs::TransportSnapshot t = fx.transport();
  EXPECT_EQ(t.reconnects, 1u);
  EXPECT_EQ(t.resync_replayed, 3u);
  EXPECT_EQ(t.retransmits, 3u);
  const std::vector<AnnotationLog::Entry> expected = {
      {kReplayAnnotationReconnect, 1, 0},
      {kReplayAnnotationResync, 1, 3},
  };
  EXPECT_EQ(fx.log.entries, expected);
  EXPECT_TRUE(sender.transmit(3)->redial);  // resync cleared the pending
}

// The receiver half: duplicates are suppressed and counted, and every
// ack faces the ack stream (drop or delay only).
TEST(ChaosLink, ReceiverSuppressesDuplicatesAndRollsAcks) {
  const auto feed_twice = [](LinkReceiver& receiver) {
    std::vector<ReliableReceiver::Delivery> out;
    receiver.on_frame(1, numbered(1), 9, out);
    receiver.on_frame(1, numbered(1), 9, out);
    return out.size();
  };
  {
    LinkFixture fx(FaultSpec{});
    LinkReceiver receiver(fx.env, LinkFixture::kChannel);
    EXPECT_EQ(feed_twice(receiver), 1u);
    EXPECT_EQ(fx.transport().dup_suppressed, 1u);
    const auto ack = receiver.ack();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->attempt, 0u);
    EXPECT_EQ(ack->cum_ack, 1u);
    EXPECT_EQ(ack->extra_delay, Duration{0});
    EXPECT_TRUE(fx.log.entries.empty());
  }
  {
    FaultSpec spec;
    spec.drop = 1.0;
    LinkFixture fx(spec);
    LinkReceiver receiver(fx.env, LinkFixture::kChannel);
    feed_twice(receiver);
    EXPECT_FALSE(receiver.ack().has_value());
    EXPECT_FALSE(receiver.ack().has_value());
    EXPECT_EQ(fx.transport().faults_injected[fault_index(FaultKind::kDrop)],
              2u);
    const std::vector<AnnotationLog::Entry> expected = {
        {static_cast<std::uint8_t>(fault_index(FaultKind::kDrop)), 1, 0},
        {static_cast<std::uint8_t>(fault_index(FaultKind::kDrop)), 1, 1},
    };
    EXPECT_EQ(fx.log.entries, expected);
  }
  {
    FaultSpec spec;
    spec.delay = 1.0;
    LinkFixture fx(spec);
    fx.env.replay = nullptr;  // unrecorded runs annotate nothing
    LinkReceiver receiver(fx.env, LinkFixture::kChannel);
    feed_twice(receiver);
    const auto ack = receiver.ack();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->extra_delay, spec.extra_delay);
    EXPECT_EQ(fx.transport().faults_injected[fault_index(FaultKind::kDelay)],
              1u);
    EXPECT_TRUE(fx.log.entries.empty());
  }
}

// ---------------------------------------------------------------------------
// Simulator chaos matrix
// ---------------------------------------------------------------------------

// The token must survive every fault kind individually: each round trip is
// a chain of dependent sends, so a single lost (or misordered) hop wedges
// the ring forever unless the reliability layer recovers it.
TEST(ChaosSim, TokenRingSurvivesEachFaultKind) {
  struct Case {
    const char* name;
    FaultSpec spec;
  };
  std::vector<Case> cases;
  {
    Case c{"drop", {}};
    c.spec.drop = 0.25;
    cases.push_back(c);
  }
  {
    Case c{"duplicate", {}};
    c.spec.duplicate = 0.25;
    cases.push_back(c);
  }
  {
    Case c{"reorder", {}};
    c.spec.reorder = 0.25;
    cases.push_back(c);
  }
  {
    Case c{"delay", {}};
    c.spec.delay = 0.25;
    cases.push_back(c);
  }
  {
    Case c{"reset", {}};
    c.spec.reset = 0.10;
    cases.push_back(c);
  }
  {
    Case c{"partition", {}};
    c.spec.partition_from = 5;
    c.spec.partition_until = 25;
    cases.push_back(c);
  }

  constexpr std::uint32_t kRounds = 12;
  for (const Case& test_case : cases) {
    TokenRingConfig ring;
    ring.rounds = kRounds;
    SimulationConfig config;
    config.seed = 9;
    config.faults = make_plan(test_case.spec, 9);
    Simulation sim(Topology::ring(3), make_token_ring(3, ring),
                   std::move(config));
    const auto& p0 =
        dynamic_cast<TokenRingProcess&>(sim.process(ProcessId(0)));
    const bool done = sim.run_until_condition(
        [&] { return p0.tokens_seen() >= kRounds; },
        sim.now() + Duration::seconds(120));
    EXPECT_TRUE(done) << "ring wedged under " << test_case.name;
    const auto snap = sim.metrics().snapshot(sim.now());
    // The adversary demonstrably acted...
    std::uint64_t injected = 0;
    for (const std::uint64_t n : snap.transport.faults_injected) {
      injected += n;
    }
    EXPECT_GT(injected, 0u) << test_case.name;
    // ...and the ledger balances: every send was delivered exactly once.
    EXPECT_EQ(snap.totals.messages_delivered, snap.totals.messages_sent)
        << test_case.name;
  }
}

// Two runs with the same seed and plan are the same run: same faults, same
// recoveries, byte-identical metrics.  This is what makes chaos failures
// reproducible, and it doubles as the E7 guarantee (a null plan leaves the
// legacy path byte-for-byte alone, which the seed suite already pins).
TEST(ChaosSim, SameSeedSamePlanIsByteIdentical) {
  const auto run = [] {
    TokenRingConfig ring;
    ring.rounds = 15;
    FaultSpec spec = mixed_spec();
    spec.reset = 0.03;
    SimulationConfig config;
    config.seed = 21;
    config.faults = make_plan(spec, 21);
    Simulation sim(Topology::ring(4), make_token_ring(4, ring),
                   std::move(config));
    sim.run_for(Duration::seconds(30));
    return sim.metrics().snapshot(sim.now()).to_json();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"faults_injected\""), std::string::npos);
}

// The windowed parallel engine must replay the whole chaos pipeline —
// fault decisions, retransmits, acks, resets and reconnects — in exactly
// the sequential order.  Any divergence shows up as differing metrics
// JSON, event counts or final clocks.
//
// Run-vs-run equality alone would let a refactor reorder the fault rolls or
// latency keys of *both* runs, so each run is also pinned to a fingerprint
// captured before the fault policy moved into net/reliable_link: FNV-1a
// over "<metrics json>|<events_processed>|<final now ns>".
TEST(ChaosSim, ParallelMatchesSequentialUnderMixedFaults) {
  constexpr std::uint64_t kPinnedFingerprint = 5085947911854832039ULL;
  const auto fingerprint = [](const auto& run) {
    const std::string text = std::get<0>(run) + "|" +
                             std::to_string(std::get<1>(run)) + "|" +
                             std::to_string(std::get<2>(run));
    return replay_payload_hash(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  };
  const auto run = [](std::uint32_t workers) {
    TokenRingConfig ring;
    ring.rounds = 15;
    FaultSpec spec = mixed_spec();
    spec.reset = 0.03;
    SimulationConfig config;
    config.seed = 21;
    config.workers = workers;
    config.faults = make_plan(spec, 21);
    Simulation sim(Topology::ring(6), make_token_ring(6, ring),
                   std::move(config));
    sim.run_for(Duration::seconds(30));
    return std::make_tuple(sim.metrics().snapshot(sim.now()).to_json(),
                           sim.events_processed(), sim.now().ns);
  };
  const auto seq = run(1);
  const auto par = run(4);
  EXPECT_EQ(std::get<0>(seq), std::get<0>(par));
  EXPECT_EQ(std::get<1>(seq), std::get<1>(par));
  EXPECT_EQ(std::get<2>(seq), std::get<2>(par));
  EXPECT_NE(std::get<0>(seq).find("\"retransmits\""), std::string::npos);
  EXPECT_EQ(fingerprint(seq), kPinnedFingerprint) << "workers=1";
  EXPECT_EQ(fingerprint(par), kPinnedFingerprint) << "workers=4";
}

// The fault-free tier halt path, pinned the same way.  Constant latency
// makes most events share their `when` with others, so this run depends on
// the (when, seq) tie order that the event heap must keep, and the halt
// waves exercise the per-in-channel done/record bookkeeping of every
// process.  FNV-1a over the metrics JSON, events_processed(), the final
// now() and each wave's encoded S_h, captured on the tree before the event
// heap and the dense in-channel slots replaced priority_queue and the
// per-channel hash maps.
TEST(ChaosSim, TierHaltCyclesMatchPinnedFingerprint) {
  constexpr std::uint64_t kPinnedFingerprint = 17262855793532433234ULL;
  const auto run = [](std::uint32_t workers) {
    GossipConfig gossip;
    HarnessConfig config;
    config.seed = 9;
    config.workers = workers;
    config.debugger_fanout = 16;
    config.latency = std::make_unique<ConstantLatency>(Duration::millis(1));
    SimDebugHarness harness(Topology::tree(256, 2), make_gossip(256, gossip),
                            std::move(config));
    std::string text;
    for (int cycle = 0; cycle < 3; ++cycle) {
      harness.sim().run_for(Duration::millis(7));
      harness.session().halt();
      auto wave = harness.session().wait_for_halt(kWait);
      EXPECT_TRUE(wave.has_value());
      if (!wave.has_value()) break;
      EXPECT_TRUE(wave->complete);
      EXPECT_EQ(wave->state.size(), 256u);
      const Bytes cut = wave->state.encode_snapshots();
      text += std::to_string(replay_payload_hash(cut)) + "|";
      EXPECT_TRUE(harness.session().resume());
    }
    Simulation& sim = harness.sim();
    text += sim.metrics().snapshot(sim.now()).to_json() + "|" +
            std::to_string(sim.events_processed()) + "|" +
            std::to_string(sim.now().ns);
    return replay_payload_hash(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  };
  const std::uint64_t seq = run(1);
  const std::uint64_t par = run(4);
  EXPECT_EQ(seq, par);
  EXPECT_EQ(seq, kPinnedFingerprint) << "workers=1";
  EXPECT_EQ(par, kPinnedFingerprint) << "workers=4";
}

// The tier C&L recording path, pinned like the halt path above: the same
// system, with three take_snapshot waves in place of the halt/resume
// cycles.  The processes keep running while each S_r assembles, so the
// hash covers the per-in-channel recording bookkeeping and the tier's
// snapshot convergecast.  Captured before the halting and snapshot engines
// shared one channel recorder and the debugger tier one wave path.
TEST(ChaosSim, TierSnapshotCyclesMatchPinnedFingerprint) {
  constexpr std::uint64_t kPinnedFingerprint = 2667720038681559398ULL;
  const auto run = [](std::uint32_t workers) {
    GossipConfig gossip;
    HarnessConfig config;
    config.seed = 9;
    config.workers = workers;
    config.debugger_fanout = 16;
    config.latency = std::make_unique<ConstantLatency>(Duration::millis(1));
    SimDebugHarness harness(Topology::tree(256, 2), make_gossip(256, gossip),
                            std::move(config));
    std::string text;
    for (int cycle = 0; cycle < 3; ++cycle) {
      harness.sim().run_for(Duration::millis(7));
      auto wave = harness.session().take_snapshot(kWait);
      EXPECT_TRUE(wave.has_value());
      if (!wave.has_value()) break;
      EXPECT_TRUE(wave->complete);
      EXPECT_EQ(wave->state.size(), 256u);
      const Bytes cut = wave->state.encode_snapshots();
      text += std::to_string(replay_payload_hash(cut)) + "|";
    }
    Simulation& sim = harness.sim();
    text += sim.metrics().snapshot(sim.now()).to_json() + "|" +
            std::to_string(sim.events_processed()) + "|" +
            std::to_string(sim.now().ns);
    return replay_payload_hash(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  };
  const std::uint64_t seq = run(1);
  const std::uint64_t par = run(4);
  EXPECT_EQ(seq, par);
  EXPECT_EQ(seq, kPinnedFingerprint) << "workers=1";
  EXPECT_EQ(par, kPinnedFingerprint) << "workers=4";
}

// Same equivalence through the full debugger harness: halt wave verdict,
// consistent cut and metrics must be identical with parallel simulation
// underneath the session machinery.
TEST(ChaosSim, ParallelHaltVerdictMatchesSequential) {
  const auto run = [](std::uint32_t workers) {
    GossipConfig gossip;
    HarnessConfig config;
    config.seed = 5;
    config.workers = workers;
    FaultSpec spec = mixed_spec();
    spec.reset = 0.02;
    config.faults = make_plan(spec, 5);
    SimDebugHarness harness(Topology::ring(4), make_gossip(4, gossip),
                            std::move(config));
    harness.sim().run_for(Duration::millis(50));
    harness.session().halt();
    auto wave = harness.session().wait_for_halt(kWait);
    EXPECT_TRUE(wave.has_value());
    std::string cut;
    if (wave.has_value()) {
      EXPECT_TRUE(wave->complete);
      EXPECT_TRUE(consistent_cut(wave->state));
      for (const auto& [process, snapshot] : wave->state.snapshots()) {
        ByteWriter writer;
        snapshot.encode(writer);
        cut += std::to_string(process.value()) + ":" +
               std::to_string(writer.size()) + ";";
      }
    }
    return std::make_pair(
        cut, harness.sim().metrics().snapshot(harness.sim().now()).to_json());
  };
  const auto seq = run(1);
  const auto par = run(4);
  EXPECT_EQ(seq.first, par.first);
  EXPECT_EQ(seq.second, par.second);
}

// Halting under chaos: the wave completes, every process freezes, the cut
// is consistent, and the verdict matches a fault-free run of the same
// system (completeness, size, per-process halted flags).
TEST(ChaosSim, HaltVerdictMatchesFaultFreeRun) {
  const auto halt_run = [](std::shared_ptr<FaultPlan> faults) {
    GossipConfig gossip;
    HarnessConfig config;
    config.seed = 5;
    config.faults = std::move(faults);
    SimDebugHarness harness(Topology::ring(4), make_gossip(4, gossip),
                            std::move(config));
    harness.sim().run_for(Duration::millis(50));
    harness.session().halt();
    auto wave = harness.session().wait_for_halt(kWait);
    EXPECT_TRUE(wave.has_value());
    if (wave.has_value()) {
      EXPECT_TRUE(wave->complete);
      EXPECT_EQ(wave->state.size(), 4u);
      EXPECT_TRUE(consistent_cut(wave->state));
    }
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(harness.shim(ProcessId(i)).halted());
      EXPECT_EQ(harness.shim(ProcessId(i)).halting().last_halt_id(), 1u);
    }
  };
  halt_run(nullptr);
  FaultSpec spec = mixed_spec();
  spec.reset = 0.02;
  halt_run(make_plan(spec, 5));
}

// Linked-predicate detection under chaos: the breakpoint on p2's token
// event must fire exactly once — a duplicated token would fire it twice, a
// dropped one never.
TEST(ChaosSim, LinkedPredicateVerdictUnchangedByFaults) {
  TokenRingConfig ring;
  ring.rounds = 100;
  // Hold the token until the arm command (which itself crosses the lossy
  // transport and may need retransmits) demonstrably landed on p2 —
  // otherwise the token laps the ring while the arm is in recovery and
  // the exact-one-event assertion races the adversary.
  ring.start_gate = std::make_shared<std::atomic<bool>>(false);
  HarnessConfig config;
  config.seed = 6;
  config.faults = make_plan(mixed_spec(), 6);
  SimDebugHarness harness(Topology::ring(4), make_token_ring(4, ring),
                          std::move(config));
  auto bp = harness.session().set_breakpoint("p2:event(token)");
  ASSERT_TRUE(bp.ok());
  ASSERT_TRUE(harness.sim().run_until_condition(
      [&] { return harness.armed_count() >= 1; },
      harness.sim().now() + Duration::seconds(60)));
  ring.start_gate->store(true);
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  const auto& p2 =
      dynamic_cast<TokenRingProcess&>(harness.shim(ProcessId(2)).user());
  EXPECT_EQ(p2.tokens_seen(), 1u);
  const auto hits = harness.session().hits();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].breakpoint, bp.value());
  EXPECT_EQ(hits[0].process, ProcessId(2));
  EXPECT_TRUE(consistent_cut(wave->state));
}

// C&L snapshot wave under chaos: recorded money is conserved even while
// transfers drop, duplicate and reorder underneath the markers.
TEST(ChaosSim, SnapshotConservesMoneyUnderFaults) {
  BankConfig bank;
  HarnessConfig config;
  config.seed = 8;
  config.faults = make_plan(mixed_spec(), 8);
  SimDebugHarness harness(Topology::complete(3), make_bank(3, bank),
                          std::move(config));
  harness.sim().run_for(Duration::millis(60));
  auto snapshot = harness.session().take_snapshot(kWait);
  ASSERT_TRUE(snapshot.has_value());
  auto total = BankProcess::total_money(snapshot->state);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.value(), 3 * bank.initial_balance);
}

// ---------------------------------------------------------------------------
// Threaded runtime under chaos
// ---------------------------------------------------------------------------

TEST(ChaosThreads, TokenRingCompletesUnderMixedFaults) {
  constexpr std::uint32_t kRounds = 6;
  TokenRingConfig ring;
  ring.rounds = kRounds;
  ring.hop_delay = Duration::micros(200);
  RuntimeConfig config;
  config.seed = 2;
  config.faults = make_plan(mixed_spec(), 2);
  Runtime runtime(Topology::ring(3), make_token_ring(3, ring), config);
  runtime.start();
  const auto& p0 =
      dynamic_cast<TokenRingProcess&>(runtime.process(ProcessId(0)));
  EXPECT_TRUE(Runtime::wait_until(
      [&] { return p0.tokens_seen() >= kRounds; }, kWait));
  runtime.shutdown();
  const auto snap = runtime.metrics().snapshot(runtime.now());
  EXPECT_EQ(snap.totals.messages_delivered, snap.totals.messages_sent);
  std::uint64_t injected = 0;
  for (const std::uint64_t n : snap.transport.faults_injected) injected += n;
  EXPECT_GT(injected, 0u);
}

TEST(ChaosThreads, HaltingConsistentUnderMixedFaults) {
  GossipConfig gossip;
  gossip.send_interval = Duration::millis(1);
  HarnessConfig config;
  config.seed = 4;
  FaultSpec spec = mixed_spec();
  spec.reset = 0.02;
  config.faults = make_plan(spec, 4);
  RuntimeDebugHarness harness(Topology::ring(3), make_gossip(3, gossip),
                              std::move(config));
  harness.start();
  const auto& p0 =
      dynamic_cast<GossipProcess&>(harness.shim(ProcessId(0)).user());
  ASSERT_TRUE(Runtime::wait_until([&] { return p0.sent() >= 5; }, kWait));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  EXPECT_EQ(wave->state.size(), 3u);
  EXPECT_TRUE(consistent_cut(wave->state));
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(harness.shim(ProcessId(i)).halted());
  }
  harness.shutdown();
}

// ---------------------------------------------------------------------------
// TCP runtime under chaos
// ---------------------------------------------------------------------------

// TcpHost (the session adapter) now lives in debugger/harness.hpp, shared
// with the tier harness.

// Emits `count` numbered messages from its on_start burst.
class Burst final : public Process {
 public:
  explicit Burst(std::uint32_t count) : count_(count) {}
  void on_start(ProcessContext& ctx) override {
    for (std::uint32_t i = 0; i < count_; ++i) {
      for (const ChannelId c : ctx.topology().out_channels(ctx.self())) {
        ByteWriter writer;
        writer.u32(i);
        ctx.send(c, Message::application(std::move(writer).take()));
      }
    }
  }
  void on_message(ProcessContext&, ChannelId, Message) override {}

 private:
  std::uint32_t count_;
};

// Records every payload it sees, in arrival order.
class Recorder final : public Process {
 public:
  void on_message(ProcessContext&, ChannelId, Message message) override {
    ByteReader reader(message.payload);
    const auto value = reader.u32();
    if (value.ok()) {
      std::lock_guard<std::mutex> guard{mutex_};
      values_.push_back(value.value());
    }
    received_.fetch_add(1, std::memory_order_acq_rel);
  }
  [[nodiscard]] std::uint32_t received() const {
    return received_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::vector<std::uint32_t> values() {
    std::lock_guard<std::mutex> guard{mutex_};
    return values_;
  }

 private:
  std::atomic<std::uint32_t> received_{0};
  std::mutex mutex_;
  std::vector<std::uint32_t> values_;
};

// The §2.1 axioms, end to end over real sockets: 60 messages cross a lossy
// channel and arrive exactly once, in exactly the order sent.
TEST(ChaosTcp, ExactlyOnceFifoUnderDropDupReorder) {
  constexpr std::uint32_t kCount = 60;
  FaultSpec spec = mixed_spec();
  spec.reset = 0.03;
  TcpRuntimeConfig config;
  config.faults = make_plan(spec, 13);
  std::vector<ProcessPtr> processes;
  processes.push_back(std::make_unique<Burst>(kCount));
  auto recorder = std::make_unique<Recorder>();
  Recorder* recorder_ptr = recorder.get();
  processes.push_back(std::move(recorder));
  TcpRuntime runtime(Topology::ring(2), std::move(processes), config);
  ASSERT_TRUE(runtime.start());
  EXPECT_TRUE(TcpRuntime::wait_until(
      [&] { return recorder_ptr->received() >= kCount; }, kWait));
  runtime.shutdown();
  const auto values = recorder_ptr->values();
  ASSERT_EQ(values.size(), kCount);  // nothing lost, nothing duplicated
  for (std::uint32_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(values[i], i) << "order broken at " << i;  // FIFO
  }
  const auto t = runtime.metrics().snapshot(runtime.now()).transport;
  std::uint64_t injected = 0;
  for (const std::uint64_t n : t.faults_injected) injected += n;
  EXPECT_GT(injected, 0u);
  EXPECT_GT(t.retransmits, 0u);
}

// Halting over sockets while connections reset underneath: the wave still
// completes on a consistent cut, and the transport demonstrably went down
// and came back (reconnect + resync counters).
TEST(ChaosTcp, HaltingConsistentAcrossReconnects) {
  GossipConfig gossip;
  gossip.send_interval = Duration::millis(1);
  FaultSpec spec = mixed_spec();
  spec.reset = 0.04;
  TcpRuntimeConfig config;
  config.faults = make_plan(spec, 17);

  Topology topology = Topology::ring(3).with_debugger();
  std::vector<ProcessPtr> processes =
      wrap_in_shims(topology, make_gossip(3, gossip));
  auto debugger = std::make_unique<DebuggerProcess>();
  DebuggerProcess* debugger_ptr = debugger.get();
  processes.push_back(std::move(debugger));

  TcpRuntime runtime(topology, std::move(processes), config);
  ASSERT_TRUE(runtime.start());
  TcpHost host(runtime);
  DebuggerSession session(host, *debugger_ptr, topology.debugger_id());

  // Let gossip flow until at least one injected reset has forced a full
  // reconnect round-trip, so the halt below crosses a healed channel.
  ASSERT_TRUE(TcpRuntime::wait_until(
      [&] {
        return runtime.metrics().snapshot(runtime.now()).transport
                   .reconnects >= 1;
      },
      kWait));
  session.halt();
  auto wave = session.wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  EXPECT_EQ(wave->state.size(), 3u);
  EXPECT_TRUE(consistent_cut(wave->state));
  runtime.shutdown();

  const auto t = runtime.metrics().snapshot(runtime.now()).transport;
  EXPECT_GT(t.faults_injected[fault_index(FaultKind::kReset)], 0u);
  EXPECT_GT(t.reconnects, 0u);
  EXPECT_GT(t.channel_down, 0u);
}

// ---------------------------------------------------------------------------
// Every substrate
// ---------------------------------------------------------------------------

// Every fault kind and every recovery path, with the same assertions on the
// simulator, the threaded runtime and the TCP runtime: the counters must
// show each fault drawn and each recovery taken.
TEST(Chaos, RecoveryCountersPopulatedOnEverySubstrate) {
  FaultSpec spec = mixed_spec();
  spec.reset = 0.05;
  spec.partition_from = 20;
  spec.partition_until = 24;
  GossipConfig gossip;
  gossip.send_interval = Duration::millis(1);
  const auto recovered = [](const obs::MetricsRegistry& metrics) {
    const obs::TransportSnapshot t = metrics.snapshot().transport;
    for (const std::uint64_t n : t.faults_injected) {
      if (n == 0) return false;
    }
    return t.retransmits > 0 && t.dup_suppressed > 0 && t.reconnects > 0 &&
           t.resync_replayed > 0 && t.channel_down > 0;
  };
  const auto expect_recovered = [](const obs::MetricsRegistry& metrics) {
    const obs::TransportSnapshot t = metrics.snapshot().transport;
    for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
      EXPECT_GT(t.faults_injected[k], 0u) << obs::kFaultKindNames[k];
    }
    EXPECT_GT(t.retransmits, 0u);
    EXPECT_GT(t.dup_suppressed, 0u);
    EXPECT_GT(t.reconnects, 0u);
    EXPECT_GT(t.resync_replayed, 0u);
    EXPECT_GT(t.channel_down, 0u);
  };
  {
    SCOPED_TRACE("sim");
    SimulationConfig config;
    config.seed = 3;
    config.faults = make_plan(spec, 3);
    Simulation sim(Topology::ring(3), make_gossip(3, gossip),
                   std::move(config));
    EXPECT_TRUE(sim.run_until_condition(
        [&] { return recovered(sim.metrics()); },
        sim.now() + Duration::seconds(300)));
    expect_recovered(sim.metrics());
  }
  {
    SCOPED_TRACE("threads");
    RuntimeConfig config;
    config.seed = 3;
    config.faults = make_plan(spec, 3);
    Runtime runtime(Topology::ring(3), make_gossip(3, gossip), config);
    runtime.start();
    EXPECT_TRUE(Runtime::wait_until(
        [&] { return recovered(runtime.metrics()); }, kWait));
    runtime.shutdown();
    expect_recovered(runtime.metrics());
  }
  {
    SCOPED_TRACE("tcp");
    TcpRuntimeConfig config;
    config.seed = 3;
    config.faults = make_plan(spec, 3);
    TcpRuntime runtime(Topology::ring(3), make_gossip(3, gossip), config);
    ASSERT_TRUE(runtime.start());
    EXPECT_TRUE(TcpRuntime::wait_until(
        [&] { return recovered(runtime.metrics()); }, kWait));
    runtime.shutdown();
    expect_recovered(runtime.metrics());
  }
}

}  // namespace
}  // namespace ddbg
