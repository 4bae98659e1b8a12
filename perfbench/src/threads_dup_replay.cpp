// threads_dup_replay: the threaded Runtime (one OS thread per process),
// ring of 3 forwarders + flat debugger, lean shim, fault plan dup=0.02
// with a ReplayRecorder attached.  Each round sets the system up, runs
// in-process halt/resume cycles while it records, shuts down and
// replays the recorded log in the simulator, which must reproduce every
// recorded cut (cuts_matched == cuts) with zero divergences.  Rounds
// repeat until the run's time is spent, which keeps the log (and memory)
// bounded whatever the machine's speed.
#include <malloc.h>

#include <memory>
#include <string>
#include <thread>

#include "bench.hpp"
#include "debugger/harness.hpp"
#include "forwarder.hpp"
#include "net/fault_plan.hpp"
#include "replay/recorder.hpp"
#include "replay/replay_driver.hpp"

namespace perfbench {

using namespace ddbg;

namespace {

constexpr std::uint32_t kUsers = 3;
constexpr std::uint32_t kTokens = 3;
// Each round records until its processes delivered this many application
// messages, so the log, the replay and peak memory do not grow with the
// machine's speed.  kRecordWallCap bounds a round on a stalled machine.
constexpr double kRoundDeliveries = 150'000;
constexpr double kRecordWallCap = 5.0;
constexpr double kWindowWall = 0.01;  // traffic window per halt cycle
// Set-ups per run: one set-up's CPU time varies by a third with what its
// threads' start-up preempts, so setup_s is the median of many.
constexpr int kSetups = 61;
constexpr const char* kFaultSpec = "dup=0.02";

ForwarderConfig forwarder_config(std::uint64_t seed) {
  ForwarderConfig fcfg;
  fcfg.tokens_per_process = kTokens;
  fcfg.seed = mix(seed, 1);
  return fcfg;
}

struct RecordedSystem {
  Probes probes;
  std::shared_ptr<ReplayRecorder> recorder;
  std::unique_ptr<RuntimeDebugHarness> harness;
};

std::unique_ptr<RecordedSystem> build(const Options& options,
                                      std::uint64_t round) {
  const std::uint64_t seed = options.seed;
  auto system = std::make_unique<RecordedSystem>();
  const std::uint64_t fault_seed = mix(seed, 100 + round);
  ReplayLogHeader header;
  header.seed = fault_seed;
  header.substrate = "threads";
  header.num_user_processes = kUsers;
  header.num_channels = static_cast<std::uint32_t>(
      Topology::ring(kUsers).with_debugger().num_channels());
  header.fault_spec = kFaultSpec;
  system->recorder = std::make_shared<ReplayRecorder>(header);

  auto plan = FaultPlan::parse(kFaultSpec, fault_seed);
  HarnessConfig config;
  config.seed = fault_seed;
  config.faults = std::make_shared<FaultPlan>(std::move(plan).value());
  config.replay = system->recorder;
  config.shim_options.stamp_vector_clocks = false;
  system->harness = std::make_unique<RuntimeDebugHarness>(
      Topology::ring(kUsers),
      make_forwarders(kUsers, forwarder_config(seed), &system->probes),
      std::move(config));
  system->recorder->set_metrics(&system->harness->runtime().metrics());
  // The process threads inherit the program CPU; the benchmark thread,
  // which plays the debugger's user and runs the replays, stays apart.
  pin_self(options.placement.program);
  system->harness->start();
  pin_self(options.placement.driver);
  return system;
}

}  // namespace

void run_threads_dup_replay(Run& run) {
  RunResult& result = run.result;
  const std::uint64_t seed = run.options.seed;
  const std::uint64_t tokens = std::uint64_t{kUsers} * kTokens;
  const double deadline = wall_s() + run.options.seconds;
  double waves = 0;
  double log_bytes = 0;
  double logged_deliveries = 0;
  bool have_counters = false;
  Counters before{};
  Counters after{};
  std::uint64_t cycle = 0;
  double round_wall = 0;  // duration of the previous round

  for (std::uint64_t round = 0;
       round == 0 || wall_s() + round_wall < deadline; ++round) {
    const double round_start = wall_s();
    // Set up many times in the first round so setup_s is a median.  Later
    // rounds set up once each and are not timed: they follow a replay and
    // a malloc_trim, so they fault their heap in again (3x the CPU), and
    // how many there are depends on the machine's speed.
    std::unique_ptr<RecordedSystem> system;
    for (int i = 0; i < (round == 0 ? kSetups : 1); ++i) {
      if (system) system->harness->shutdown();
      system.reset();
      const double t0 = thread_cpu_s();
      system = build(run.options, round);
      const double cpu = thread_cpu_s() - t0;
      if (round == 0) {
        // The start ran on the program CPU: scale by its speed there.
        const double ref = reference_cpu_s(run.options.placement.program);
        result.setup_s.push_back(at_reference(cpu, ref));
      }
    }
    RuntimeDebugHarness& harness = *system->harness;
    DebuggerSession& session = harness.session();
    const Counters round_before = read_counters(harness.runtime().metrics());

    const double record_start = total_received(system->probes);
    const double record_end = wall_s() + kRecordWallCap;
    while (total_received(system->probes) - record_start < kRoundDeliveries &&
           wall_s() < record_end) {
      const bool traced = run.options.trace && cycle % 2 == 0;
      run.spans.set_active(traced);
      const bool capture = run.options.trace && cycle == 0;
      set_capture(system->probes, capture, 1024);
      SpanRecorder::Scope span(run.spans, "cycle", "bench", cycle);

      const double r0 = total_received(system->probes);
      const double t0 = wall_s();
      const double c0 = cpu_s();
      std::this_thread::sleep_for(std::chrono::duration<double>(kWindowWall));
      const double elapsed = wall_s() - t0;
      const double window_cpu = cpu_s() - c0;
      const double msgs = total_received(system->probes) - r0;
      set_capture(system->probes, false);

      std::optional<DebuggerProcess::WaveInfo> wave;
      const double h0 = wall_s();
      {
        SpanRecorder::Scope halt_span(run.spans, "halt+wait_for_halt",
                                      "debugger", cycle);
        session.halt();
        wave = session.wait_for_halt(Duration::seconds(5));
      }
      const double halt_ms = (wall_s() - h0) * 1e3;
      result.op(wave.has_value());
      if (!wave) {
        result.violation("threads_dup_replay: halt wave did not complete");
        break;
      }
      ++waves;
      result.halt_ms.push_back(halt_ms);
      const double wave_ms =
          static_cast<double>((wave->completed_at - wave->started_at).ns) /
          1e6;
      result.wave_ms.push_back(wave_ms);
      result.session_overhead_ms.push_back(halt_ms - wave_ms);
      conservation_gate(run, wave->state, kUsers, tokens, wave->id,
                        "threads_dup_replay");
      if (!result.capture.state) result.capture.state = std::move(wave->state);
      // While the system is halted its CPU is idle: time the reference
      // work there, for the window just measured.
      result.window(msgs, elapsed, window_cpu,
                    reference_cpu_s(run.options.placement.program), traced);

      const double q0 = wall_s();
      {
        SpanRecorder::Scope resume_span(run.spans, "resume", "debugger",
                                        cycle);
        session.resume(Duration::seconds(5));
      }
      result.resume_ms.push_back((wall_s() - q0) * 1e3);
      result.op(true);
      ++cycle;
    }
    run.spans.set_active(true);

    const Counters round_after = read_counters(harness.runtime().metrics());
    if (!have_counters) {
      before = round_before;
      after = round_after;
      have_counters = true;
      time_metrics_snapshot(run, harness.runtime().metrics(),
                            harness.runtime().now());
    }
    harness.shutdown();
    if (!result.violations.empty()) return;
    collect_captured(system->probes, result.capture.messages);

    // Replay the recorded log in the simulator.
    const ReplayLog log = system->recorder->log();
    if (round == 0) {
      log_bytes = static_cast<double>(log.encode().size());
      logged_deliveries = static_cast<double>(log.deliveries());
    }
    ReplayDriver::Options options;
    options.shim_options.stamp_vector_clocks = false;
    ReplayDriver driver(log, Topology::ring(kUsers),
                        make_forwarders(kUsers, forwarder_config(seed)),
                        options);
    ReplayDriver::Report report;
    const double d0 = wall_s();
    {
      SpanRecorder::Scope span(run.spans, "ReplayDriver::run", "replay",
                               round);
      report = driver.run();
    }
    const double driver_s = wall_s() - d0;
    const bool replay_ok = report.ok() && report.cuts == log.halt_cuts() &&
                           report.cuts_matched == report.cuts &&
                           report.divergences == 0;
    result.op(replay_ok);
    if (!replay_ok) {
      result.violation("threads_dup_replay round " + std::to_string(round) +
                       ": replay diverged: cuts=" +
                       std::to_string(report.cuts) + " matched=" +
                       std::to_string(report.cuts_matched) + " divergences=" +
                       std::to_string(report.divergences) + " " +
                       report.error);
      return;
    }
    result.replay_deliveries += static_cast<double>(report.deliveries);
    result.replay_s += driver_s;
    round_wall = wall_s() - round_start;
    // Every round starts fresh threads; hand the freed arenas back so peak
    // memory is one round's, not a count of rounds.
    ::malloc_trim(0);
  }

  layer_counters(result, before, after, waves);
  result.layer["replay.driver_run_s"] = result.replay_s;
  result.layer["replay.log_bytes_per_delivery"] =
      logged_deliveries > 0 ? log_bytes / logged_deliveries : 0.0;
  // Threaded hot path per app message: one reliable stage at the sender,
  // one on_frame per arrival (duplicates included), one recorder append.
  const double dup = result.layer["net.dup_suppressed_per_msg"];
  result.ops.reliable_stage = 1;
  result.ops.reliable_on_frame = 1 + dup;
  result.ops.record_delivery = 1;
}

}  // namespace perfbench
