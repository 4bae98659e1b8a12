// The hierarchical debugger tier (AggregatorProcess + DebuggerProcess tree
// mode + Topology::with_debugger_tree): shape invariants, flat-vs-tree
// verdict equivalence, marker-suppression equivalence, convergecast move
// semantics, and chaos on interior tier channels.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "analysis/consistency.hpp"
#include "core/debug_shim.hpp"
#include "debugger/harness.hpp"
#include "net/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "tests/alloc_counter.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

constexpr Duration kWait = Duration::seconds(30);

HarnessConfig tier_config(std::uint64_t seed, std::uint32_t fanout) {
  HarnessConfig config;
  config.seed = seed;
  config.debugger_fanout = fanout;
  return config;
}

// A process with no behaviour: its halted state depends on nothing, which
// isolates the control-plane marker flow from application timing.
class IdleProcess final : public Process {
 public:
  void on_message(ProcessContext&, ChannelId, Message) override {}
  [[nodiscard]] std::string describe_state() const override { return "idle"; }
};

std::vector<ProcessPtr> make_idle(std::uint32_t n) {
  std::vector<ProcessPtr> processes;
  for (std::uint32_t i = 0; i < n; ++i) {
    processes.push_back(std::make_unique<IdleProcess>());
  }
  return processes;
}

// ---------------------------------------------------------------------------
// Topology shape
// ---------------------------------------------------------------------------

TEST(DebuggerTierTopology, TreeShapeInvariants) {
  for (const std::uint32_t n : {1u, 2u, 5u, 16u, 100u}) {
    for (const std::uint32_t fanout : {2u, 4u, 16u}) {
      const Topology t = Topology(n).with_debugger_tree(fanout);
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " fanout=" + std::to_string(fanout));
      ASSERT_TRUE(t.has_debugger());
      EXPECT_EQ(t.num_user_processes(), n);
      EXPECT_EQ(t.num_processes(), n + t.num_tier_processes());
      EXPECT_EQ(t.num_aggregators(), t.num_tier_processes() - 1);
      EXPECT_EQ(t.tier_fanout(), fanout);
      // The root covers every user; the control tree alone makes the
      // topology strongly connected (section 2.2.3's property, preserved).
      EXPECT_EQ(t.tier_user_range(t.debugger_id()),
                (std::pair<std::uint32_t, std::uint32_t>{0, n}));
      EXPECT_TRUE(t.strongly_connected());
      // Every non-root process has a parent that lists it as a child, and
      // control channels to/from that parent.
      std::vector<std::uint32_t> covered(n, 0);
      for (const ProcessId p : t.process_ids()) {
        if (p == t.debugger_id()) {
          EXPECT_FALSE(t.tier_parent(p).valid());
          continue;
        }
        const ProcessId parent = t.tier_parent(p);
        ASSERT_TRUE(parent.valid()) << to_string(p);
        EXPECT_TRUE(t.is_aggregator(parent) || t.is_debugger(parent));
        bool listed = false;
        for (const ProcessId c : t.tier_children(parent)) listed |= c == p;
        EXPECT_TRUE(listed) << to_string(p);
        EXPECT_EQ(t.channel(t.control_to(p)).source, parent);
        EXPECT_EQ(t.channel(t.control_from(p)).destination, parent);
        if (p.value() < n) {
          // User: leaf of the tier.
          EXPECT_TRUE(t.tier_children(p).empty());
        } else {
          // Aggregator: at most `fanout` children whose user ranges tile
          // this node's range.
          const auto children = t.tier_children(p);
          EXPECT_LE(children.size(), fanout);
          EXPECT_FALSE(children.empty());
          auto [lo, hi] = t.tier_user_range(p);
          std::uint32_t cursor = lo;
          for (const ProcessId c : children) {
            const auto [clo, chi] = t.tier_user_range(c);
            EXPECT_EQ(clo, cursor);
            cursor = chi;
          }
          EXPECT_EQ(cursor, hi);
        }
      }
      for (const ProcessId u : t.user_process_ids()) {
        for (std::uint32_t i = t.tier_user_range(u).first;
             i < t.tier_user_range(u).second; ++i) {
          covered[i] += 1;
        }
      }
      for (std::uint32_t i = 0; i < n; ++i) EXPECT_EQ(covered[i], 1u);
    }
  }
}

TEST(DebuggerTierTopology, FlatDebuggerChildrenAreAllUsers) {
  const Topology t = Topology::ring(5).with_debugger();
  EXPECT_EQ(t.num_tier_processes(), 1u);
  EXPECT_EQ(t.tier_fanout(), 0u);
  const auto children = t.tier_children(t.debugger_id());
  ASSERT_EQ(children.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(children[i], ProcessId(i));
    EXPECT_EQ(t.tier_parent(ProcessId(i)), t.debugger_id());
  }
}

// ---------------------------------------------------------------------------
// Flat vs tree verdict equivalence
// ---------------------------------------------------------------------------

// A finished (quiescent) workload halts to a state that does not depend on
// marker timing, so the flat and tree cuts must be Theorem-2 identical.
TEST(DebuggerTier, QuiescedHaltStateIdenticalFlatVsTree) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::uint32_t fanout : {2u, 3u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " fanout=" + std::to_string(fanout));
      TokenRingConfig ring;
      ring.rounds = 3;
      auto run = [&](std::uint32_t debugger_fanout) {
        SimDebugHarness harness(Topology::ring(9), make_token_ring(9, ring),
                                tier_config(seed, debugger_fanout));
        harness.sim().run_for(Duration::seconds(2));  // workload finishes
        harness.session().halt();
        auto wave = harness.session().wait_for_halt(kWait);
        EXPECT_TRUE(wave.has_value());
        return wave;
      };
      auto flat = run(0);
      auto tree = run(fanout);
      ASSERT_TRUE(flat.has_value() && tree.has_value());
      EXPECT_EQ(tree->state.size(), 9u);
      const auto difference = flat->state.first_difference(tree->state);
      EXPECT_FALSE(difference.has_value()) << *difference;
      EXPECT_TRUE(consistent_cut(tree->state));
    }
  }
}

TEST(DebuggerTier, QuiescedSnapshotIdenticalFlatVsTree) {
  TokenRingConfig ring;
  ring.rounds = 2;
  auto run = [&](std::uint32_t fanout) {
    SimDebugHarness harness(Topology::ring(7), make_token_ring(7, ring),
                            tier_config(4, fanout));
    harness.sim().run_for(Duration::seconds(2));
    auto wave = harness.session().take_snapshot(kWait);
    EXPECT_TRUE(wave.has_value());
    return wave;
  };
  auto flat = run(0);
  auto tree = run(2);
  ASSERT_TRUE(flat.has_value() && tree.has_value());
  // Recordings carry no halt paths, so the rendering is byte-identical too.
  EXPECT_EQ(flat->state.describe(), tree->state.describe());
  EXPECT_FALSE(flat->state.first_difference(tree->state).has_value());
}

// Theorem 2 *within* tree mode, mid-flight: S_h == S_r on the same
// deterministic execution, with markers crossing the aggregator tier.
TEST(DebuggerTier, TreeHaltedEqualsTreeRecorded) {
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Duration point = Duration::millis(40);
    SimDebugHarness record_run(Topology::ring(9),
                               make_gossip(9, GossipConfig{}),
                               tier_config(seed, 3));
    record_run.sim().run_for(point);
    auto recorded = record_run.session().take_snapshot(kWait);
    ASSERT_TRUE(recorded.has_value());

    SimDebugHarness halt_run(Topology::ring(9), make_gossip(9, GossipConfig{}),
                             tier_config(seed, 3));
    halt_run.sim().run_for(point);
    halt_run.session().halt();
    auto halted = halt_run.session().wait_for_halt(kWait);
    ASSERT_TRUE(halted.has_value());

    const auto difference = halted->state.first_difference(recorded->state);
    EXPECT_FALSE(difference.has_value()) << *difference;
  }
}

// Mid-flight verdict on a tree tier: money in transit plus balances is
// conserved, and the cut is vector-clock consistent.
TEST(DebuggerTier, BankConservationAcrossTreeHaltedState) {
  for (const std::uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    BankConfig bank;
    SimDebugHarness harness(Topology::complete(8), make_bank(8, bank),
                            tier_config(seed, 2));
    harness.sim().run_for(Duration::millis(60));
    harness.session().halt();
    auto wave = harness.session().wait_for_halt(kWait);
    ASSERT_TRUE(wave.has_value());
    EXPECT_EQ(wave->state.size(), 8u);
    auto total = BankProcess::total_money(wave->state);
    ASSERT_TRUE(total.ok());
    EXPECT_EQ(total.value(), 8 * bank.initial_balance);
    EXPECT_TRUE(consistent_cut(wave->state));
    for (std::uint32_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(harness.shim(ProcessId(i)).halted());
      EXPECT_EQ(harness.shim(ProcessId(i)).halting().last_halt_id(), 1u);
    }
  }
}

// Halt paths through the tier start at the root and walk aggregators, and
// every user's last_halt_id agrees (section 2.2.1's invariant).
TEST(DebuggerTier, HaltPathsWalkTheTier) {
  SimDebugHarness harness(Topology::ring(8), make_gossip(8, GossipConfig{}),
                          tier_config(13, 2));
  harness.sim().run_for(Duration::millis(20));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  const Topology& t = harness.topology();
  const ProcessId root = harness.debugger_id();
  for (const auto& [p, snapshot] : wave->state.snapshots()) {
    const std::vector<ProcessId>& path = snapshot.halt_path;
    ASSERT_FALSE(path.empty()) << to_string(p);
    EXPECT_EQ(path.front(), root) << to_string(p);
    // Everything on the path before the first user process is tier-side.
    for (const ProcessId hop : path) {
      if (hop.value() < t.num_user_processes()) break;
      EXPECT_TRUE(t.is_aggregator(hop) || t.is_debugger(hop));
    }
  }
}

// ---------------------------------------------------------------------------
// Control-plane routing through the tier
// ---------------------------------------------------------------------------

TEST(DebuggerTier, BreakpointFiresThroughTier) {
  TokenRingConfig ring;
  ring.rounds = 100;
  SimDebugHarness harness(Topology::ring(6), make_token_ring(6, ring),
                          tier_config(14, 2));
  auto bp = harness.session().set_breakpoint(
      "p1:event(token) -> p4:event(token)");
  ASSERT_TRUE(bp.ok());
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  const auto hits = harness.session().hits();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].process, ProcessId(4));  // chain completes at p4
  EXPECT_EQ(hits[0].breakpoint, bp.value());
  EXPECT_TRUE(consistent_cut(wave->state));
}

TEST(DebuggerTier, QueryStateRoutesThroughTier) {
  SimDebugHarness harness(Topology::ring(8), make_gossip(8, GossipConfig{}),
                          tier_config(15, 2));
  harness.sim().run_for(Duration::millis(30));
  auto report = harness.session().inspect(ProcessId(6), kWait);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->process, ProcessId(6));
  EXPECT_NE(report->description.find("sent="), std::string::npos);
}

TEST(DebuggerTier, ResumeThroughTierContinuesExecution) {
  SimDebugHarness harness(Topology::ring(8), make_gossip(8, GossipConfig{}),
                          tier_config(16, 2));
  harness.sim().run_for(Duration::millis(30));
  harness.session().halt();
  ASSERT_TRUE(harness.session().wait_for_halt(kWait).has_value());
  const auto& p0 =
      dynamic_cast<GossipProcess&>(harness.shim(ProcessId(0)).user());
  const std::uint64_t sent_at_halt = p0.sent();
  harness.sim().run_for(Duration::millis(50));
  EXPECT_EQ(p0.sent(), sent_at_halt);  // frozen
  harness.session().resume();
  harness.sim().run_for(Duration::millis(80));
  EXPECT_FALSE(harness.shim(ProcessId(0)).halted());
  EXPECT_GT(p0.sent(), sent_at_halt);
}

TEST(DebuggerTier, RepeatedWavesThroughTierStayConsistent) {
  SimDebugHarness harness(Topology::ring(9), make_gossip(9, GossipConfig{}),
                          tier_config(17, 3));
  for (std::uint64_t wave_id = 1; wave_id <= 3; ++wave_id) {
    harness.sim().run_for(Duration::millis(20));
    harness.session().halt();
    ASSERT_TRUE(harness.sim().run_until_condition(
        [&] { return harness.debugger().halt_complete(wave_id); },
        harness.sim().now() + kWait));
    auto wave = harness.debugger().halt_wave(wave_id);
    ASSERT_TRUE(wave.has_value());
    EXPECT_EQ(wave->state.size(), 9u);
    EXPECT_TRUE(consistent_cut(wave->state));
    harness.session().resume();
  }
}

// ---------------------------------------------------------------------------
// Marker suppression
// ---------------------------------------------------------------------------

// With only control channels, a debugger-initiated halt makes every user
// learn the wave from its parent — each user's single control out-channel
// echo is exactly the redundant send, so the counter is exact.
TEST(DebuggerTier, SuppressionCountsAndPreservesVerdict) {
  auto run = [&](bool suppress, std::uint32_t fanout) {
    HarnessConfig config = tier_config(18, fanout);
    config.shim_options.suppress_redundant_markers = suppress;
    SimDebugHarness harness(Topology(6), make_idle(6), std::move(config));
    harness.sim().run_for(Duration::millis(5));
    harness.session().halt();
    auto wave = harness.session().wait_for_halt(kWait);
    EXPECT_TRUE(wave.has_value());
    EXPECT_TRUE(wave->complete);
    EXPECT_EQ(wave->state.size(), 6u);
    return harness.sim().metrics().snapshot().tier.markers_suppressed;
  };
  EXPECT_EQ(run(/*suppress=*/false, /*fanout=*/0), 0u);
  EXPECT_EQ(run(/*suppress=*/true, /*fanout=*/0), 6u);
  // Tree mode: the six user echoes are suppressed the same way; interior
  // aggregators additionally skip the back-edge toward the wave's sender.
  EXPECT_GE(run(/*suppress=*/true, /*fanout=*/2), 6u);
}

// The flood (suppression off) and the suppressed run halt to Theorem-2
// identical states on a quiesced workload, flat and tree alike.
TEST(DebuggerTier, SuppressionDoesNotChangeQuiescedVerdict) {
  TokenRingConfig ring;
  ring.rounds = 3;
  auto run = [&](bool suppress, std::uint32_t fanout) {
    HarnessConfig config = tier_config(19, fanout);
    config.shim_options.suppress_redundant_markers = suppress;
    SimDebugHarness harness(Topology::ring(6), make_token_ring(6, ring),
                            std::move(config));
    harness.sim().run_for(Duration::seconds(2));
    harness.session().halt();
    auto wave = harness.session().wait_for_halt(kWait);
    EXPECT_TRUE(wave.has_value());
    return wave;
  };
  auto flood = run(false, 0);
  for (const std::uint32_t fanout : {0u, 2u}) {
    auto suppressed = run(true, fanout);
    ASSERT_TRUE(flood.has_value() && suppressed.has_value());
    const auto difference = flood->state.first_difference(suppressed->state);
    EXPECT_FALSE(difference.has_value())
        << "fanout " << fanout << ": " << *difference;
  }
}

// ---------------------------------------------------------------------------
// Convergecast move semantics (allocation pins)
// ---------------------------------------------------------------------------

ProcessSnapshot heavy_snapshot(std::uint32_t pid) {
  ProcessSnapshot snapshot;
  snapshot.process = ProcessId(pid);
  snapshot.state = Bytes(1024, 0x5a);
  for (std::uint32_t c = 0; c < 8; ++c) {
    ChannelState cs;
    cs.channel = ChannelId(c);
    for (std::uint32_t m = 0; m < 16; ++m) {
      cs.messages.push_back(Bytes(256, static_cast<std::uint8_t>(m)));
    }
    snapshot.in_channels.push_back(std::move(cs));
  }
  return snapshot;
}

TEST(GlobalStateMove, AddByRvalueDoesNotCopyPayloads) {
  GlobalState state{HaltId(1)};
  ProcessSnapshot snapshot = heavy_snapshot(3);
  const std::size_t before = testing::allocation_count();
  state.add(std::move(snapshot));
  const std::size_t allocations = testing::allocation_count() - before;
  // One map node plus slack; the 128 payload buffers must move, not copy.
  EXPECT_LE(allocations, 4u) << "aggregation path is copying snapshots";
  EXPECT_EQ(state.at(ProcessId(3)).in_channels.size(), 8u);
}

TEST(GlobalStateMove, TakeAllMovesSnapshotsOut) {
  GlobalState state{HaltId(1)};
  for (std::uint32_t p = 0; p < 4; ++p) state.add(heavy_snapshot(p));
  const std::size_t before = testing::allocation_count();
  std::vector<ProcessSnapshot> all = state.take_all();
  const std::size_t allocations = testing::allocation_count() - before;
  // One vector allocation plus slack; 4 * 129 payload buffers must move.
  EXPECT_LE(allocations, 4u) << "take_all is copying snapshots";
  EXPECT_EQ(state.size(), 0u);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[2].process, ProcessId(2));
  EXPECT_EQ(all[2].in_channels.size(), 8u);
}

TEST(GlobalStateMove, LvalueAddStillCopies) {
  GlobalState state{HaltId(1)};
  const ProcessSnapshot snapshot = heavy_snapshot(0);
  state.add(snapshot);  // const ref: must copy, caller keeps its snapshot
  EXPECT_EQ(snapshot.in_channels.size(), 8u);
  EXPECT_FALSE(snapshot.state.empty());
  EXPECT_EQ(state.at(ProcessId(0)).in_channels.size(), 8u);
}

// ---------------------------------------------------------------------------
// Chaos on interior tier channels
// ---------------------------------------------------------------------------

// Faults on an interior aggregator's channels (the convergecast trunk):
// with the reliability layer on, the wave still completes with a
// consistent, conservation-clean verdict.
TEST(DebuggerTierChaos, InteriorAggregatorChannelFaults) {
  BankConfig bank;
  const Topology topology = Topology::complete(8).with_debugger_tree(2);
  // Find an interior aggregator (a non-root tier node with aggregator
  // children) and aim the adversary at every channel touching it.
  ProcessId interior;
  for (const ProcessId p : topology.process_ids()) {
    if (!topology.is_aggregator(p)) continue;
    for (const ProcessId c : topology.tier_children(p)) {
      if (topology.is_aggregator(c)) interior = p;
    }
  }
  ASSERT_TRUE(interior.valid()) << "fanout 2 over 8 users has 3 tier levels";
  FaultSpec lossy;
  lossy.drop = 0.15;
  lossy.duplicate = 0.10;
  lossy.reorder = 0.10;
  auto plan = std::make_shared<FaultPlan>(FaultSpec{}, 7);
  for (const ChannelSpec& channel : topology.channels()) {
    if (channel.source == interior || channel.destination == interior) {
      plan->set_channel(channel.id, lossy);
    }
  }
  HarnessConfig config = tier_config(20, 2);
  config.faults = std::move(plan);
  SimDebugHarness harness(Topology::complete(8), make_bank(8, bank),
                          std::move(config));
  harness.sim().run_for(Duration::millis(50));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  EXPECT_EQ(wave->state.size(), 8u);
  auto total = BankProcess::total_money(wave->state);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.value(), 8 * bank.initial_balance);
  EXPECT_TRUE(consistent_cut(wave->state));
  // The adversary actually bit: the verdict above survived real loss, not a
  // lucky fault-free run.
  const auto transport = harness.sim().metrics().snapshot().transport;
  std::uint64_t injected = 0;
  for (const std::uint64_t count : transport.faults_injected) {
    injected += count;
  }
  EXPECT_GT(injected, 0u);
  EXPECT_GT(transport.retransmits, 0u);
}

// ---------------------------------------------------------------------------
// Threaded runtime
// ---------------------------------------------------------------------------

TEST(DebuggerTierRuntime, TreeHaltOnThreads) {
  GossipConfig gossip;
  RuntimeDebugHarness harness(Topology::ring(8), make_gossip(8, gossip),
                              tier_config(21, 2));
  harness.start();
  auto wave_started = Runtime::wait_until(
      [&] {
        return dynamic_cast<GossipProcess&>(harness.shim(ProcessId(0)).user())
                   .sent() > 0;
      },
      kWait);
  ASSERT_TRUE(wave_started);
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  EXPECT_EQ(wave->state.size(), 8u);
  EXPECT_TRUE(consistent_cut(wave->state));
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(harness.shim(ProcessId(i)).halted());
  }
  harness.shutdown();
}

// ---------------------------------------------------------------------------
// TCP runtime: the tier over real sockets (epoll reactor under load)
// ---------------------------------------------------------------------------

// Moderate-N tree halt over TCP loopback: every convergecast hop is a real
// socket frame, repeated waves with resumes in between.  Also pins the
// transport economics — channel multiplexing keeps the socket count below
// the channel count even with a full control tree wired in.
TEST(DebuggerTierTcp, TreeHaltAtModerateN) {
  constexpr std::uint32_t kUsers = 32;
  GossipConfig gossip;
  gossip.send_interval = Duration::millis(1);
  TcpDebugHarness harness(Topology::ring(kUsers), make_gossip(kUsers, gossip),
                          tier_config(22, 4));
  const std::size_t channels = harness.topology().channels().size();
  EXPECT_LT(harness.tcp().data_socket_count(), channels)
      << "pair muxing should need fewer sockets than channels";
  ASSERT_TRUE(harness.start());
  const auto& p0 =
      dynamic_cast<GossipProcess&>(harness.shim(ProcessId(0)).user());
  for (std::uint64_t wave_id = 1; wave_id <= 2; ++wave_id) {
    const std::uint64_t sent_before = p0.sent();
    ASSERT_TRUE(TcpRuntime::wait_until(
        [&] { return p0.sent() > sent_before; }, kWait));
    harness.session().halt();
    ASSERT_TRUE(TcpRuntime::wait_until(
        [&] { return harness.debugger().halt_complete(wave_id); }, kWait));
    auto wave = harness.debugger().halt_wave(wave_id);
    ASSERT_TRUE(wave.has_value());
    EXPECT_TRUE(wave->complete);
    EXPECT_EQ(wave->state.size(), kUsers);
    EXPECT_TRUE(consistent_cut(wave->state));
    for (std::uint32_t i = 0; i < kUsers; ++i) {
      EXPECT_TRUE(harness.shim(ProcessId(i)).halted()) << i;
    }
    harness.session().resume();
  }
  harness.shutdown();
  const auto transport =
      harness.tcp().metrics().snapshot(harness.tcp().now()).transport;
  EXPECT_GT(transport.epoll_wakeups, 0u);
  EXPECT_GE(transport.mux_channels_per_socket, 2u);
}

// A breakpoint armed through the aggregator tier, hit on a socket-borne
// event, halting through the tier again.  The start gate holds the ring
// until the arm command has crossed two tier hops.
TEST(DebuggerTierTcp, BreakpointFiresThroughTierOverSockets) {
  TokenRingConfig ring;
  ring.rounds = 1000;
  ring.hop_delay = Duration::micros(500);
  ring.start_gate = std::make_shared<std::atomic<bool>>(false);
  TcpDebugHarness harness(Topology::ring(6), make_token_ring(6, ring),
                          tier_config(23, 2));
  ASSERT_TRUE(harness.start());
  auto bp = harness.session().set_breakpoint("(p2:event(token))^2");
  ASSERT_TRUE(bp.ok());
  ASSERT_TRUE(harness.wait_for_armed(1, kWait));
  ring.start_gate->store(true, std::memory_order_release);
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  const auto hits = harness.session().hits();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].process, ProcessId(2));
  EXPECT_EQ(hits[0].breakpoint, bp.value());
  const auto& p2 =
      dynamic_cast<TokenRingProcess&>(harness.shim(ProcessId(2)).user());
  EXPECT_EQ(p2.tokens_seen(), 2u);
  EXPECT_TRUE(consistent_cut(wave->state));
  harness.shutdown();
}

// Connections reset mid-run (including tier control channels), forcing
// reconnects and resyncs underneath a halt wave; the wave must still
// complete on a consistent cut over the healed transport.
TEST(DebuggerTierTcp, ReconnectDuringHaltWave) {
  GossipConfig gossip;
  gossip.send_interval = Duration::millis(1);
  FaultSpec spec;
  spec.drop = 0.05;
  spec.reset = 0.04;
  HarnessConfig config = tier_config(24, 2);
  config.faults = std::make_shared<FaultPlan>(spec, 24);
  TcpDebugHarness harness(Topology::ring(8), make_gossip(8, gossip),
                          std::move(config));
  ASSERT_TRUE(harness.start());
  // Let traffic flow until at least one reset has forced a reconnect, so
  // the halt below crosses a socket that demonstrably went down and back.
  ASSERT_TRUE(TcpRuntime::wait_until(
      [&] {
        return harness.tcp().metrics().snapshot(harness.tcp().now())
                   .transport.reconnects >= 1;
      },
      kWait));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  EXPECT_EQ(wave->state.size(), 8u);
  EXPECT_TRUE(consistent_cut(wave->state));
  harness.shutdown();
  const auto transport =
      harness.tcp().metrics().snapshot(harness.tcp().now()).transport;
  EXPECT_GT(transport.faults_injected[fault_index(FaultKind::kReset)], 0u);
  EXPECT_GT(transport.reconnects, 0u);
  EXPECT_GT(transport.resync_replayed, 0u);
}

}  // namespace
}  // namespace ddbg
