// Integration tests on the deterministic simulator: the Halting Algorithm,
// the C&L recorder, Theorem-2 equivalence, breakpoints (SP/DP/LP/CP),
// resume, halt-order paths, and the basic algorithm's failure modes.
#include <gtest/gtest.h>

#include "analysis/consistency.hpp"
#include "analysis/trace.hpp"
#include "core/debug_shim.hpp"
#include "debugger/harness.hpp"
#include "workload/behaviors.hpp"

namespace ddbg {
namespace {

constexpr Duration kWait = Duration::seconds(30);

HarnessConfig config_with(std::uint64_t seed, Trace* trace = nullptr) {
  HarnessConfig config;
  config.seed = seed;
  if (trace != nullptr) config.shim_options.trace_sink = trace->sink();
  return config;
}

TEST(HaltingSim, DebuggerInitiatedHaltCompletes) {
  GossipConfig gossip;
  SimDebugHarness harness(Topology::ring(4), make_gossip(4, gossip),
                          config_with(1));
  harness.sim().run_for(Duration::millis(50));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  EXPECT_EQ(wave->state.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(harness.shim(ProcessId(i)).halted());
  }
  EXPECT_TRUE(consistent_cut(wave->state));
}

TEST(HaltingSim, HaltIdAgreesEverywhere) {
  SimDebugHarness harness(Topology::ring(5), make_gossip(5, GossipConfig{}),
                          config_with(2));
  harness.sim().run_for(Duration::millis(30));
  harness.session().halt();
  ASSERT_TRUE(harness.session().wait_for_halt(kWait).has_value());
  // "when all processes halt, the value of each process's last_halt_id is
  // the same" (section 2.2.1).
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(harness.shim(ProcessId(i)).halting().last_halt_id(), 1u);
  }
  EXPECT_EQ(harness.debugger().last_halt_id(), 1u);
}

// Theorem 2 / experiment E1: the halted state equals the recorded state on
// the same deterministic execution.
TEST(HaltingSim, HaltedStateEqualsRecordedState) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Duration point = Duration::millis(40);

    SimDebugHarness record_run(Topology::ring(4),
                               make_gossip(4, GossipConfig{}),
                               config_with(seed));
    record_run.sim().run_for(point);
    auto recorded = record_run.session().take_snapshot(kWait);
    ASSERT_TRUE(recorded.has_value()) << "seed " << seed;

    SimDebugHarness halt_run(Topology::ring(4),
                             make_gossip(4, GossipConfig{}),
                             config_with(seed));
    halt_run.sim().run_for(point);
    halt_run.session().halt();
    auto halted = halt_run.session().wait_for_halt(kWait);
    ASSERT_TRUE(halted.has_value()) << "seed " << seed;

    const auto difference = halted->state.first_difference(recorded->state);
    EXPECT_FALSE(difference.has_value())
        << "seed " << seed << ": " << *difference;
  }
}

TEST(HaltingSim, RecordingDoesNotStopExecution) {
  SimDebugHarness harness(Topology::ring(3), make_gossip(3, GossipConfig{}),
                          config_with(3));
  harness.sim().run_for(Duration::millis(30));
  auto snapshot = harness.session().take_snapshot(kWait);
  ASSERT_TRUE(snapshot.has_value());
  const auto& p0 = dynamic_cast<GossipProcess&>(harness.shim(ProcessId(0)).user());
  const std::uint64_t sent_at_snapshot = p0.sent();
  harness.sim().run_for(Duration::millis(50));
  EXPECT_GT(p0.sent(), sent_at_snapshot);  // still running
  EXPECT_FALSE(harness.shim(ProcessId(0)).halted());
}

// Two recording waves started back to back: each process meets the newer
// wave's marker while its recording of the older one may still wait for
// markers.  It abandons the older recording and records the newer wave,
// which completes with a consistent cut.  The superseded wave never
// completes: a process that abandoned it never reports it.
TEST(HaltingSim, NewerRecordingWaveSupersedesAnOpenOne) {
  SimDebugHarness harness(Topology::ring(4), make_gossip(4, GossipConfig{}),
                          config_with(31));
  harness.sim().run_for(Duration::millis(30));
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  harness.sim().post(harness.debugger_id(),
                     [&](ProcessContext& ctx, Process&) {
                       first = harness.debugger().initiate_snapshot(ctx);
                       second = harness.debugger().initiate_snapshot(ctx);
                     });
  DebuggerProcess& debugger = harness.debugger();
  ASSERT_TRUE(harness.sim().run_until_condition(
      [&] { return second != 0 && debugger.snapshot_complete(second); },
      harness.sim().now() + kWait));
  EXPECT_LT(first, second);
  const auto wave = debugger.snapshot_wave(second);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(wave->complete);
  EXPECT_EQ(wave->state.size(), 4u);
  EXPECT_TRUE(consistent_cut(wave->state));
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(harness.shim(ProcessId(i)).snapshot_engine().last_snapshot_id(),
              second);
    EXPECT_FALSE(harness.shim(ProcessId(i)).snapshot_engine().recording());
  }
  // The processes kept running throughout.
  harness.sim().run_for(Duration::millis(20));
  EXPECT_FALSE(harness.shim(ProcessId(0)).halted());
  EXPECT_FALSE(debugger.snapshot_complete(first));
  const auto superseded = debugger.snapshot_wave(first);
  ASSERT_TRUE(superseded.has_value());
  EXPECT_LT(superseded->state.size(), 4u);
}

TEST(HaltingSim, SimpleBreakpointHaltsAtEvent) {
  TokenRingConfig ring_config;
  ring_config.rounds = 100;
  SimDebugHarness harness(Topology::ring(4), make_token_ring(4, ring_config),
                          config_with(4));
  auto bp = harness.session().set_breakpoint("p2:event(token)");
  ASSERT_TRUE(bp.ok());
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  // p2 saw the token exactly once before everything froze.
  const auto& p2 = dynamic_cast<TokenRingProcess&>(
      harness.shim(ProcessId(2)).user());
  EXPECT_EQ(p2.tokens_seen(), 1u);
  const auto hits = harness.session().hits();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].breakpoint, bp.value());
  EXPECT_EQ(hits[0].process, ProcessId(2));
  EXPECT_TRUE(consistent_cut(wave->state));
}

TEST(HaltingSim, SpontaneousInitiatorHasEmptyHaltPath) {
  TokenRingConfig ring_config;
  ring_config.rounds = 100;
  SimDebugHarness harness(Topology::ring(4), make_token_ring(4, ring_config),
                          config_with(5));
  ASSERT_TRUE(harness.session().set_breakpoint("p1:event(token)").ok());
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  // The initiator p1 halted spontaneously: no marker path.  Everyone else
  // halted on a marker whose path begins at p1.
  const auto& snapshots = wave->state.snapshots();
  EXPECT_TRUE(snapshots.at(ProcessId(1)).halt_path.empty());
  for (const ProcessId p : {ProcessId(0), ProcessId(2), ProcessId(3)}) {
    const auto& path = snapshots.at(p).halt_path;
    ASSERT_FALSE(path.empty()) << to_string(p);
    EXPECT_EQ(path.front(), ProcessId(1)) << to_string(p);
  }
}

TEST(HaltingSim, LinkedPredicateChainAcrossProcesses) {
  TokenRingConfig ring_config;
  ring_config.rounds = 100;
  SimDebugHarness harness(Topology::ring(4), make_token_ring(4, ring_config),
                          config_with(6));
  auto bp = harness.session().set_breakpoint(
      "p1:event(token) -> p2:event(token) -> p3:event(token)");
  ASSERT_TRUE(bp.ok());
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  const auto hits = harness.session().hits();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].process, ProcessId(3));  // chain completes at p3
  EXPECT_TRUE(consistent_cut(wave->state));
}

TEST(HaltingSim, LinkedPredicateRepetition) {
  TokenRingConfig ring_config;
  ring_config.rounds = 100;
  SimDebugHarness harness(Topology::ring(3), make_token_ring(3, ring_config),
                          config_with(7));
  // The token passes p1 once per round; fire on the third pass.
  ASSERT_TRUE(harness.session().set_breakpoint("(p1:event(token))^3").ok());
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  const auto& p1 = dynamic_cast<TokenRingProcess&>(
      harness.shim(ProcessId(1)).user());
  EXPECT_EQ(p1.tokens_seen(), 3u);
}

TEST(HaltingSim, DisjunctionFiresOnEitherProcess) {
  TokenRingConfig ring_config;
  ring_config.rounds = 100;
  SimDebugHarness harness(Topology::ring(4), make_token_ring(4, ring_config),
                          config_with(8));
  ASSERT_TRUE(harness.session()
                  .set_breakpoint("p2:event(token) | p1:event(token)")
                  .ok());
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  // Whichever arm the token reaches first (after the asynchronous arming
  // completes) fires; it must be one of the two named processes.
  const auto hits = harness.session().hits();
  ASSERT_GE(hits.size(), 1u);
  EXPECT_TRUE(hits[0].process == ProcessId(1) ||
              hits[0].process == ProcessId(2))
      << to_string(hits[0].process);
}

TEST(HaltingSim, VariableConditionBreakpoint) {
  BankConfig bank;
  SimDebugHarness harness(Topology::complete(3), make_bank(3, bank),
                          config_with(9));
  // Halt when p0's balance falls below 900.
  ASSERT_TRUE(harness.session().set_breakpoint("p0:balance<900").ok());
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  const auto& p0 =
      dynamic_cast<BankProcess&>(harness.shim(ProcessId(0)).user());
  EXPECT_LT(p0.balance(), 900);
}

TEST(HaltingSim, BankConservationAcrossHaltedState) {
  // The flagship consistency witness: balances plus in-flight transfers
  // must equal the initial total in S_h.
  for (std::uint64_t seed = 11; seed <= 15; ++seed) {
    BankConfig bank;
    SimDebugHarness harness(Topology::complete(4), make_bank(4, bank),
                            config_with(seed));
    harness.sim().run_for(Duration::millis(60));
    harness.session().halt();
    auto wave = harness.session().wait_for_halt(kWait);
    ASSERT_TRUE(wave.has_value()) << "seed " << seed;
    auto total = BankProcess::total_money(wave->state);
    ASSERT_TRUE(total.ok()) << "seed " << seed;
    EXPECT_EQ(total.value(), 4 * bank.initial_balance) << "seed " << seed;
    EXPECT_TRUE(consistent_cut(wave->state)) << "seed " << seed;
  }
}

TEST(HaltingSim, ResumeContinuesExecution) {
  GossipConfig gossip;
  SimDebugHarness harness(Topology::ring(3), make_gossip(3, GossipConfig{}),
                          config_with(16));
  harness.sim().run_for(Duration::millis(30));
  harness.session().halt();
  ASSERT_TRUE(harness.session().wait_for_halt(kWait).has_value());
  const auto& p0 =
      dynamic_cast<GossipProcess&>(harness.shim(ProcessId(0)).user());
  const std::uint64_t sent_at_halt = p0.sent();
  // Frozen: nothing moves.
  harness.sim().run_for(Duration::millis(50));
  EXPECT_EQ(p0.sent(), sent_at_halt);
  // Resume: the computation picks back up.
  harness.session().resume();
  harness.sim().run_for(Duration::millis(80));
  EXPECT_FALSE(harness.shim(ProcessId(0)).halted());
  EXPECT_GT(p0.sent(), sent_at_halt);
}

TEST(HaltingSim, ResumeReplaysChannelState) {
  // Money in recorded channel states must not be lost across resume.
  BankConfig bank;
  SimDebugHarness harness(Topology::complete(3), make_bank(3, bank),
                          config_with(17));
  harness.sim().run_for(Duration::millis(40));
  harness.session().halt();
  auto first = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(first.has_value());
  ASSERT_GT(first->state.total_channel_messages(), 0u)
      << "test needs in-flight transfers to be meaningful";
  harness.session().resume();
  harness.sim().run_for(Duration::millis(40));
  harness.session().halt();
  const bool second_complete = harness.sim().run_until_condition(
      [&] { return harness.debugger().halt_complete(2); },
      harness.sim().now() + kWait);
  ASSERT_TRUE(second_complete);
  auto second = harness.debugger().halt_wave(2);
  ASSERT_TRUE(second.has_value());
  auto total = BankProcess::total_money(second->state);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.value(), 3 * bank.initial_balance);
}

TEST(HaltingSim, SecondWaveHasFreshChannelStates) {
  GossipConfig gossip;
  SimDebugHarness harness(Topology::ring(3), make_gossip(3, gossip),
                          config_with(18));
  harness.sim().run_for(Duration::millis(20));
  harness.session().halt();
  ASSERT_TRUE(harness.session().wait_for_halt(kWait).has_value());
  harness.session().resume();
  harness.sim().run_for(Duration::millis(20));
  harness.session().halt();
  ASSERT_TRUE(harness.sim().run_until_condition(
      [&] { return harness.debugger().halt_complete(2); },
      harness.sim().now() + kWait));
  auto wave = harness.debugger().halt_wave(2);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(consistent_cut(wave->state));
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(harness.shim(ProcessId(i)).halting().last_halt_id(), 2u);
  }
}

// Experiment E2's shape: the extended model halts an acyclic pipeline from
// anywhere; the basic algorithm cannot.
TEST(HaltingSim, ExtendedModelHaltsAcyclicPipeline) {
  PipelineConfig pipeline;
  pipeline.items = 0;  // unbounded
  SimDebugHarness harness(Topology::pipeline(4), make_pipeline(4, pipeline),
                          config_with(19));
  harness.sim().run_for(Duration::millis(30));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(harness.shim(ProcessId(i)).halted()) << "p" << i;
  }
  EXPECT_TRUE(consistent_cut(wave->state));
}

TEST(HaltingSim, BasicAlgorithmStrandsPipelineProducer) {
  // No debugger process: consumer-initiated halting cannot reach upstream.
  PipelineConfig pipeline;
  pipeline.items = 0;
  Topology topology = Topology::pipeline(3);
  std::vector<ProcessPtr> shims =
      wrap_in_shims(topology, make_pipeline(3, pipeline));
  Simulation sim(topology, std::move(shims));
  sim.run_for(Duration::millis(20));
  sim.post(ProcessId(2), [](ProcessContext& ctx, Process& process) {
    dynamic_cast<DebugShim&>(process).initiate_halt(ctx);
  });
  sim.run_for(Duration::millis(200));
  EXPECT_TRUE(dynamic_cast<DebugShim&>(sim.process(ProcessId(2))).halted());
  EXPECT_FALSE(dynamic_cast<DebugShim&>(sim.process(ProcessId(0))).halted());
  EXPECT_FALSE(dynamic_cast<DebugShim&>(sim.process(ProcessId(1))).halted());
}

TEST(HaltingSim, BasicAlgorithmWorksOnStronglyConnected) {
  // Sanity for the basic model (section 2.2.1): spontaneous initiation in a
  // ring halts everyone, reports collected via the local callback.
  GossipConfig gossip;
  Topology topology = Topology::ring(4);
  auto reports = std::make_shared<std::vector<ProcessId>>();
  DebugShim::Options options;
  options.local_halt_report = [reports](ProcessId p, std::uint64_t,
                                        const ProcessSnapshot&) {
    reports->push_back(p);
  };
  std::vector<ProcessPtr> shims =
      wrap_in_shims(topology, make_gossip(4, gossip), options);
  Simulation sim(topology, std::move(shims));
  sim.run_for(Duration::millis(20));
  sim.post(ProcessId(1), [](ProcessContext& ctx, Process& process) {
    dynamic_cast<DebugShim&>(process).initiate_halt(ctx);
  });
  sim.run_for(Duration::millis(500));
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(dynamic_cast<DebugShim&>(sim.process(ProcessId(i))).halted());
  }
  EXPECT_EQ(reports->size(), 4u);
}

TEST(HaltingSim, SimultaneousInitiationsMergeIntoOneWave) {
  TokenRingConfig ring_config;
  ring_config.rounds = 100;
  SimDebugHarness harness(Topology::ring(4), make_token_ring(4, ring_config),
                          config_with(20));
  // Both p1 and p3 watch for message sends; multiple processes can satisfy
  // their SPs at close virtual times and both initiate halting.
  ASSERT_TRUE(harness.session().set_breakpoint("p1:sent").ok());
  ASSERT_TRUE(harness.session().set_breakpoint("p3:sent").ok());
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_EQ(wave->id, 1u);
  EXPECT_TRUE(consistent_cut(wave->state));
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(harness.shim(ProcessId(i)).halting().last_halt_id(), 1u);
  }
}

// Regression: a halt marker for a *newer* wave reaching an
// already-halted process must be adopted in place, not re-enter the Halt
// Routine (which aborts on double entry) and not wedge in the channel.
TEST(OverlappingHaltWave, NewerWaveReachesHaltedRingAndConverges) {
  GossipConfig gossip;
  Topology topology = Topology::ring(3);
  std::vector<ProcessPtr> shims =
      wrap_in_shims(topology, make_gossip(3, gossip));
  Simulation sim(topology, std::move(shims));
  sim.run_for(Duration::millis(20));

  // Wave 1: p1 halts spontaneously; the ring converges.
  sim.post(ProcessId(1), [](ProcessContext& ctx, Process& process) {
    dynamic_cast<DebugShim&>(process).initiate_halt(ctx);
  });
  sim.run_for(Duration::millis(200));
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(dynamic_cast<DebugShim&>(sim.process(ProcessId(i))).halted());
    ASSERT_EQ(dynamic_cast<DebugShim&>(sim.process(ProcessId(i)))
                  .halting()
                  .last_halt_id(),
              1u);
  }

  // Wave 2 arrives while everyone is already halted: inject a crafted
  // marker from p0 (as a racing second initiator's forwarded marker would
  // look).  The closure runs in p0's process context even though p0 is
  // halted, exactly like an engine-level send.
  const ChannelId out = topology.out_channels(ProcessId(0))[0];
  sim.post(ProcessId(0), [out](ProcessContext& ctx, Process&) {
    ctx.send(out, Message::halt_marker(HaltId(2), {ProcessId(0)}));
  });
  sim.run_for(Duration::millis(200));

  // No abort, everyone still halted, and the ring converged on wave 2 with
  // complete channel state.
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto& shim = dynamic_cast<DebugShim&>(sim.process(ProcessId(i)));
    EXPECT_TRUE(shim.halted()) << "p" << i;
    EXPECT_EQ(shim.halting().last_halt_id(), 2u) << "p" << i;
    EXPECT_TRUE(shim.halting().complete()) << "p" << i;
  }
}

TEST(HaltingSim, OrderedConjunctionHalts) {
  BankConfig bank;
  SimDebugHarness harness(Topology::complete(2), make_bank(2, bank),
                          config_with(21));
  auto bp = harness.session().set_breakpoint("p0:sent & p1:sent");
  ASSERT_TRUE(bp.ok());
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  EXPECT_TRUE(consistent_cut(wave->state));
  ASSERT_GE(harness.session().hits().size(), 1u);
}

TEST(HaltingSim, UnorderedConjunctionGathersAtDebugger) {
  BankConfig bank;
  SimDebugHarness harness(Topology::complete(2), make_bank(2, bank),
                          config_with(22));
  auto bp = harness.session().set_breakpoint("p0:sent & p1:sent [unordered]");
  ASSERT_TRUE(bp.ok());
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  const auto hits = harness.session().hits();
  ASSERT_GE(hits.size(), 1u);
  EXPECT_NE(hits[0].description.find("unordered"), std::string::npos);
}

TEST(HaltingSim, WaitForHaltAfterResumeWaitsForNewWave) {
  TokenRingConfig ring_config;
  ring_config.rounds = 200;
  SimDebugHarness harness(Topology::ring(3), make_token_ring(3, ring_config),
                          config_with(28));
  harness.sim().run_for(Duration::millis(10));
  harness.session().halt();
  auto first = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(first.has_value());
  harness.session().resume();
  // No breakpoint and no halt request: waiting must time out rather than
  // hand back the stale wave.
  auto stale = harness.session().wait_for_halt(Duration::millis(50));
  EXPECT_FALSE(stale.has_value());
  // A fresh breakpoint produces a genuinely new wave.
  ASSERT_TRUE(harness.session().set_breakpoint("p1:event(token)").ok());
  auto second = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, 2u);
}

TEST(HaltingSim, MonitorBreakpointRecordsWithoutHalting) {
  // Section 4: the LP detector as an EDL-style abstract-event recognizer.
  TokenRingConfig ring_config;
  ring_config.rounds = 6;
  SimDebugHarness harness(Topology::ring(3), make_token_ring(3, ring_config),
                          config_with(29));
  auto bp = harness.session().set_breakpoint(
      "p0:event(token) -> p1:event(token) [monitor]");
  ASSERT_TRUE(bp.ok());
  // Let the whole 6-round workload finish: no halt must ever happen…
  harness.sim().run_for(Duration::seconds(3));
  EXPECT_EQ(harness.debugger().last_halt_id(), 0u);
  EXPECT_FALSE(harness.shim(ProcessId(0)).halted());
  // …but the abstract event was recognized repeatedly (re-armed each time).
  EXPECT_GE(harness.debugger().hit_count(bp.value()), 3u);
  for (const auto& hit : harness.session().hits()) {
    EXPECT_EQ(hit.process, ProcessId(1));  // the chain completes at p1
  }
}

TEST(HaltingSim, MonitorUnorderedConjunctionRecognizesRepeatedly) {
  GossipConfig gossip;
  SimDebugHarness harness(Topology::complete(2), make_gossip(2, gossip),
                          config_with(30));
  auto bp =
      harness.session().set_breakpoint("p0:sent & p1:sent [unordered] [monitor]");
  ASSERT_TRUE(bp.ok());
  harness.sim().run_for(Duration::millis(100));
  EXPECT_EQ(harness.debugger().last_halt_id(), 0u);  // never halts
  EXPECT_GE(harness.debugger().hit_count(bp.value()), 2u);
}

TEST(HaltingSim, MessageAccountingCleanForHaltedState) {
  Trace trace;
  GossipConfig gossip;
  SimDebugHarness harness(Topology::ring(4), make_gossip(4, gossip),
                          config_with(23, &trace));
  harness.sim().run_for(Duration::millis(40));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  const MessageAccounting accounting = account_messages(trace, wave->state);
  EXPECT_EQ(accounting.orphan_receives, 0u);
  EXPECT_EQ(accounting.lost_messages, 0u);
  EXPECT_EQ(accounting.recorded_in_channels, accounting.in_flight_per_trace);
  EXPECT_TRUE(accounting.clean());
}

TEST(HaltingSim, InspectReturnsLiveState) {
  GossipConfig gossip;
  SimDebugHarness harness(Topology::ring(3), make_gossip(3, gossip),
                          config_with(24));
  harness.sim().run_for(Duration::millis(30));
  auto report = harness.session().inspect(ProcessId(1), kWait);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->process, ProcessId(1));
  EXPECT_NE(report->description.find("sent="), std::string::npos);
}

TEST(HaltingSim, HaltOrderPathsGrowAlongRing) {
  // Section 2.2.4: the marker path tells each process who halted before it.
  GossipConfig gossip;
  SimDebugHarness harness(Topology::ring(5), make_gossip(5, gossip),
                          config_with(25));
  harness.sim().run_for(Duration::millis(20));
  harness.session().halt();
  auto wave = harness.session().wait_for_halt(kWait);
  ASSERT_TRUE(wave.has_value());
  // Every user process halted on a marker that started at the debugger.
  const ProcessId d = harness.debugger_id();
  for (const auto& [p, snapshot] : wave->state.snapshots()) {
    const std::vector<ProcessId>& path = snapshot.halt_path;
    ASSERT_FALSE(path.empty()) << to_string(p);
    EXPECT_EQ(path.front(), d) << to_string(p);
  }
}

TEST(HaltingSim, ClearBreakpointPreventsTrigger) {
  TokenRingConfig ring_config;
  ring_config.rounds = 5;
  SimDebugHarness harness(Topology::ring(3), make_token_ring(3, ring_config),
                          config_with(26));
  auto bp = harness.session().set_breakpoint("(p0:event(token))^4");
  ASSERT_TRUE(bp.ok());
  harness.session().clear_breakpoint(bp.value());
  // Let the whole ring workload finish: no halt should ever happen.
  harness.sim().run_for(Duration::seconds(2));
  EXPECT_EQ(harness.debugger().last_halt_id(), 0u);
  EXPECT_FALSE(harness.shim(ProcessId(0)).halted());
}

TEST(HaltingSim, ParseErrorSurfacesToCaller) {
  GossipConfig gossip;
  SimDebugHarness harness(Topology::ring(3), make_gossip(3, gossip),
                          config_with(27));
  auto bp = harness.session().set_breakpoint("p0:event(");
  EXPECT_FALSE(bp.ok());
  EXPECT_EQ(bp.error().code(), ErrorCode::kParseError);
}

}  // namespace
}  // namespace ddbg
