// The two simulator workloads (workers=1).
//
// sim_vc_hotpath: ring of 64 forwarders with 4 tokens each under full
//   instrumentation — vector clocks stamped, a trace sink attached, and a
//   64-way disjunctive breakpoint armed that every event is checked against
//   and that never fires.  Long traffic windows price the per-message
//   instrumentation; one halt wave closes each window so every S_h can be
//   checked (conservation and vector-clock cut consistency).  A transport
//   observer checks per-channel FIFO on every application message.
//
// sim_tier_halt: 4096 forwarders on Topology::tree(4096, 2), one token
//   each, fanout-16 aggregator tier, lean shim, 1 ms constant latency.
//   Closed loop: halt -> wait_for_halt -> conservation check -> resume ->
//   5 ms of virtual traffic.  Halt-wave cost at scale dominates.
#include <malloc.h>

#include <deque>
#include <memory>
#include <string>

#include "analysis/consistency.hpp"
#include "bench.hpp"
#include "debugger/harness.hpp"
#include "forwarder.hpp"
#include "sim/latency_model.hpp"

namespace perfbench {

using namespace ddbg;

namespace {

constexpr std::size_t kCaptureLimit = 4096;

// Checks per-channel FIFO of application messages at the transport, counts
// in-flight application messages, and (traced runs) measures how many
// vector-clock entries change between consecutive messages on a channel.
class HotpathObserver final : public TransportObserver {
 public:
  HotpathObserver(std::size_t channels, bool measure_changes)
      : in_flight_(channels), last_clock_(channels),
        measure_changes_(measure_changes) {}

  void on_send(TimePoint, ChannelId channel, const Message& m) override {
    if (m.kind != MessageKind::kApplication) return;
    in_flight_[channel.value()].push_back(m.message_id);
    if (!measure_changes_ || m.vclock.empty()) return;
    VectorClock& last = last_clock_[channel.value()];
    for (std::uint32_t i = 0; i < m.vclock.size(); ++i) {
      if (m.vclock.at(ProcessId(i)) != last.at(ProcessId(i))) ++changed_;
    }
    entries_ += m.vclock.size();
    last = m.vclock;
  }

  void on_deliver(TimePoint, ChannelId channel, const Message& m) override {
    if (m.kind != MessageKind::kApplication) return;
    auto& queue = in_flight_[channel.value()];
    if (queue.empty() || queue.front() != m.message_id) {
      ++fifo_violations_;
      return;
    }
    queue.pop_front();
  }

  [[nodiscard]] std::uint64_t fifo_violations() const {
    return fifo_violations_;
  }
  [[nodiscard]] std::uint64_t in_flight() const {
    std::uint64_t total = 0;
    for (const auto& queue : in_flight_) total += queue.size();
    return total;
  }
  [[nodiscard]] double changed_share() const {
    return entries_ > 0 ? static_cast<double>(changed_) /
                              static_cast<double>(entries_)
                        : 0.0;
  }

 private:
  std::vector<std::deque<std::uint64_t>> in_flight_;
  std::vector<VectorClock> last_clock_;
  bool measure_changes_;
  std::uint64_t changed_ = 0;
  std::uint64_t entries_ = 0;
  std::uint64_t fifo_violations_ = 0;
};

struct HotpathSystem {
  Probes probes;
  std::unique_ptr<HotpathObserver> observer;
  std::unique_ptr<SimDebugHarness> harness;
};

// Traffic window: run the simulator in `step` virtual steps for `wall`
// seconds.  Counts toward the traced or untraced throughput depending on
// whether spans are recording; `ref` is the cycle's reference run.
void sim_window(Run& run, Simulation& sim,
                const Probes& probes,
                Duration step, double wall, std::uint64_t cycle, double ref,
                double& run_for_s) {
  const double r0 = total_received(probes);
  const double t0 = wall_s();
  const double c0 = thread_cpu_s();
  do {
    SpanRecorder::Scope span(run.spans, "run_for", "sim", cycle);
    sim.run_for(step);
  } while (wall_s() - t0 < wall);
  const double elapsed = wall_s() - t0;
  run_for_s += elapsed;
  run.result.window(total_received(probes) - r0, elapsed,
                    thread_cpu_s() - c0, ref, run.spans.recording());
}

// One halt/resume cycle through the DebuggerSession; returns the wave.
std::optional<DebuggerProcess::WaveInfo> sim_wave(Run& run,
                                                  DebuggerSession& session,
                                                  std::uint64_t cycle,
                                                  double ref) {
  std::optional<DebuggerProcess::WaveInfo> wave;
  const double h0 = thread_cpu_s();
  double w0 = 0;
  {
    SpanRecorder::Scope span(run.spans, "halt+wait_for_halt", "debugger",
                             cycle);
    session.halt();
    w0 = thread_cpu_s();
    wave = session.wait_for_halt(Duration::seconds(60));
  }
  const double h1 = thread_cpu_s();
  run.result.op(wave.has_value());
  if (!wave) {
    run.result.violation("halt wave " + std::to_string(cycle) +
                         " did not complete");
    return wave;
  }
  // The simulator's clock is virtual and the simulator runs on this
  // thread, so the wave's cost is the CPU time wait_for_halt spends
  // executing it (at reference speed); the session's own share is the CPU
  // time of posting the halt.
  run.result.halt_ms.push_back(at_reference(h1 - h0, ref) * 1e3);
  run.result.wave_ms.push_back(at_reference(h1 - w0, ref) * 1e3);
  run.result.session_overhead_ms.push_back(at_reference(w0 - h0, ref) * 1e3);
  return wave;
}

void sim_resume(Run& run, DebuggerSession& session, std::uint64_t cycle,
                double ref) {
  const double r0 = thread_cpu_s();
  {
    SpanRecorder::Scope span(run.spans, "resume", "debugger", cycle);
    session.resume(Duration::seconds(60));
  }
  run.result.resume_ms.push_back(at_reference(thread_cpu_s() - r0, ref) * 1e3);
  run.result.op(true);
}

}  // namespace

void run_sim_vc_hotpath(Run& run) {
  constexpr std::uint32_t kUsers = 64;
  constexpr std::uint32_t kTokens = 4;
  constexpr double kWindowWall = 0.05;
  const std::uint64_t tokens = std::uint64_t{kUsers} * kTokens;
  RunResult& result = run.result;
  const std::uint64_t seed = run.options.seed;

  std::string expr;
  for (std::uint32_t p = 0; p < kUsers; ++p) {
    expr += (p == 0 ? "" : " | ") + std::string("p") + std::to_string(p) +
            ":hops<0";
  }
  result.capture.breakpoint = expr;
  result.capture.ring_size = kUsers;
  result.capture.vector_clocks = true;
  result.capture.trace_sink = true;

  std::uint64_t events = 0;
  bool capture_events = false;
  auto build = [&]() {
    auto system = std::make_unique<HotpathSystem>();
    ForwarderConfig fcfg;
    fcfg.tokens_per_process = kTokens;
    fcfg.seed = mix(seed, 1);
    HarnessConfig config;
    config.seed = mix(seed, 2);
    config.latency = std::make_unique<UniformLatency>(Duration::millis(1),
                                                      Duration::millis(5));
    config.shim_options.stamp_vector_clocks = true;
    config.shim_options.trace_sink = [&events, &capture_events,
                                      &result](const LocalEvent& event) {
      ++events;
      if (capture_events && result.capture.events.size() < kCaptureLimit) {
        result.capture.events.push_back(event);
      }
    };
    system->harness = std::make_unique<SimDebugHarness>(
        Topology::ring(kUsers),
        make_forwarders(kUsers, fcfg, &system->probes), std::move(config));
    Simulation& sim = system->harness->sim();
    system->observer = std::make_unique<HotpathObserver>(
        sim.topology().num_channels(), run.options.trace);
    sim.set_observer(system->observer.get());
    auto bp = system->harness->session().set_breakpoint(expr);
    result.op(bp.ok());
    if (!bp.ok()) {
      result.violation("arming the hot-path breakpoint failed: " +
                       bp.error().message());
      return system;
    }
    sim.run_until_condition(
        [&] { return system->harness->armed_count() >= kUsers; },
        sim.now() + Duration::seconds(1));
    if (system->harness->armed_count() < kUsers) {
      result.violation("hot-path breakpoint armed on " +
                       std::to_string(system->harness->armed_count()) +
                       " of 64 processes");
    }
    return system;
  };

  std::unique_ptr<HotpathSystem> system;
  for (int i = 0; i < 21; ++i) {
    system.reset();
    const double t0 = thread_cpu_s();
    system = build();
    const double cpu = thread_cpu_s() - t0;
    result.setup_s.push_back(at_reference(cpu, reference_cpu_s()));
  }
  if (!result.violations.empty()) return;

  SimDebugHarness& harness = *system->harness;
  Simulation& sim = harness.sim();
  DebuggerSession& session = harness.session();
  const Counters before = read_counters(sim.metrics());
  const std::uint64_t events_before = events;
  const std::uint64_t sim_events_before = sim.events_processed();
  const double received_before = total_received(system->probes);
  double run_for_s = 0;
  double waves = 0;
  const double deadline = wall_s() + run.options.seconds;
  for (std::uint64_t cycle = 0; wall_s() < deadline; ++cycle) {
    const bool traced = run.options.trace && cycle % 2 == 0;
    run.spans.set_active(traced);
    const bool capture = run.options.trace && cycle == 0;
    capture_events = capture;
    set_capture(system->probes, capture, kCaptureLimit / kUsers);
    SpanRecorder::Scope span(run.spans, "cycle", "bench", cycle);
    const double ref = reference_cpu_s();
    sim_window(run, sim, system->probes, Duration::millis(10), kWindowWall,
               cycle, ref, run_for_s);
    capture_events = false;
    set_capture(system->probes, false);
    auto wave = sim_wave(run, session, cycle, ref);
    if (!wave) break;
    ++waves;
    conservation_gate(run, wave->state, kUsers, tokens, wave->id,
                      "sim_vc_hotpath");
    if (auto bad = find_cut_inconsistency(wave->state)) {
      result.violation("sim_vc_hotpath wave " + std::to_string(wave->id) +
                       ": vector-clock cut inconsistent: " + *bad);
    }
    if (!result.capture.state) result.capture.state = wave->state;
    sim_resume(run, session, cycle, ref);
  }
  run.spans.set_active(true);

  // End-of-run gates, after a quiet stretch with no wave in progress.
  sim.run_for(Duration::millis(20));
  const Counters after = read_counters(sim.metrics());
  const std::uint64_t app_sent = after.totals.sent[0];
  const std::uint64_t app_delivered = after.totals.delivered[0];
  if (system->observer->fifo_violations() != 0) {
    result.violation("per-channel FIFO violated " +
                     std::to_string(system->observer->fifo_violations()) +
                     " times");
  }
  if (app_sent != app_delivered + sim.total_in_flight() ||
      system->observer->in_flight() != tokens) {
    result.violation(
        "sent != delivered + in_flight at the end: sent=" +
        std::to_string(app_sent) + " delivered=" +
        std::to_string(app_delivered) +
        " in_flight=" + std::to_string(sim.total_in_flight()) +
        " observed_in_flight=" + std::to_string(system->observer->in_flight()));
  }
  if (harness.debugger().hits().size() != 0) {
    result.violation("the never-firing hot-path breakpoint fired");
  }

  collect_captured(system->probes, result.capture.messages);
  const double delivered = total_received(system->probes) - received_before;
  layer_counters(result, before, after, waves);
  result.layer["sim.run_for_s"] = run_for_s;
  result.layer["sim.events_per_app_msg"] =
      static_cast<double>(sim.events_processed() - sim_events_before) /
      delivered;
  result.layer["core.events_per_app_msg"] =
      static_cast<double>(events - events_before) / delivered;
  result.layer["clock.vc_changed_entry_share"] =
      system->observer->changed_share();
  result.ops.predicate_match = result.layer["core.events_per_app_msg"];
  time_metrics_snapshot(run, sim.metrics(), sim.now());
}

void run_sim_tier_halt(Run& run) {
  constexpr std::uint32_t kUsers = 4096;
  constexpr std::uint32_t kFanout = 16;
  const std::uint64_t tokens = kUsers;
  RunResult& result = run.result;
  const std::uint64_t seed = run.options.seed;

  Probes probes;
  auto build = [&]() {
    probes.clear();
    ForwarderConfig fcfg;
    fcfg.tokens_per_process = 1;
    fcfg.seed = mix(seed, 1);
    HarnessConfig config;
    config.seed = mix(seed, 2);
    config.debugger_fanout = kFanout;
    config.latency = std::make_unique<ConstantLatency>(Duration::millis(1));
    config.shim_options.stamp_vector_clocks = false;
    auto harness = std::make_unique<SimDebugHarness>(
        Topology::tree(kUsers, 2), make_forwarders(kUsers, fcfg, &probes),
        std::move(config));
    // Start every process (t = 0 events): the tokens go out.
    harness->sim().run_until(harness->sim().now());
    return harness;
  };

  // The debugger keeps every completed wave's S_h (4096 snapshots each),
  // so memory grows with the number of waves a run fits.  Rounds of
  // kWavesPerRound waves on a fresh system keep peak_rss_mb a property of
  // the workload rather than of the machine's speed.
  constexpr int kWavesPerRound = 25;
  double run_for_s = 0;
  double waves = 0;
  double sim_events = 0;
  double delivered = 0;
  bool first_round = true;
  Counters before{};
  Counters after{};
  std::uint64_t cycle = 0;
  const double deadline = wall_s() + run.options.seconds;
  while (wall_s() < deadline && result.violations.empty()) {
    // Set up many times in the first round so setup_s is a median.  The
    // first set-ups fault in the heap the later ones reuse (24 ms falling
    // to 9 ms over fifteen), so they are run but not timed.
    constexpr int kWarmSetups = 10;
    constexpr int kSetups = 21;
    std::unique_ptr<SimDebugHarness> harness;
    for (int i = 0; i < (first_round ? kWarmSetups + kSetups : 1); ++i) {
      harness.reset();
      const double t0 = thread_cpu_s();
      harness = build();
      const double cpu = thread_cpu_s() - t0;
      if (first_round && i >= kWarmSetups) {
        result.setup_s.push_back(at_reference(cpu, reference_cpu_s()));
      }
    }
    Simulation& sim = harness->sim();
    DebuggerSession& session = harness->session();
    const Counters round_before = read_counters(sim.metrics());
    const std::uint64_t events_before = sim.events_processed();
    const double received_before = total_received(probes);
    for (int w = 0; w < kWavesPerRound && wall_s() < deadline; ++w, ++cycle) {
      const bool traced = run.options.trace && cycle % 2 == 0;
      run.spans.set_active(traced);
      const bool capture = run.options.trace && cycle == 0;
      set_capture(probes, capture, 1);
      SpanRecorder::Scope span(run.spans, "cycle", "bench", cycle);
      const double ref = reference_cpu_s();
      auto wave = sim_wave(run, session, cycle, ref);
      if (!wave) break;
      ++waves;
      conservation_gate(run, wave->state, kUsers, tokens, wave->id,
                        "sim_tier_halt");
      if (!result.capture.state) result.capture.state = std::move(wave->state);
      sim_resume(run, session, cycle, ref);
      // One step of 5 ms virtual traffic (wall = 0 stops after one step).
      sim_window(run, sim, probes, Duration::millis(5), 0.0, cycle, ref,
                 run_for_s);
      set_capture(probes, false);
    }
    run.spans.set_active(true);
    if (first_round) {
      before = round_before;
      after = read_counters(sim.metrics());
      time_metrics_snapshot(run, sim.metrics(), sim.now());
      first_round = false;
    }
    sim_events += static_cast<double>(sim.events_processed() - events_before);
    delivered += total_received(probes) - received_before;
    collect_captured(probes, result.capture.messages);
    harness.reset();
    ::malloc_trim(0);
  }

  layer_counters(result, before, after, waves);
  result.layer["sim.run_for_s"] = run_for_s;
  result.layer["sim.events_per_app_msg"] = sim_events / delivered;
}

}  // namespace perfbench
