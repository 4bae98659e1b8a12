// tcp_session: the TCP loopback runtime (one epoll reactor thread per
// process), ring of 3 forwarders + flat debugger, lean shim, with the
// control-socket SessionServer attached.  One SessionClient on one control
// connection runs a closed loop:
//
//   traffic window -> halt -> state -> hits -> resume        (3 of 4 cycles)
//   traffic window -> break p1:hops>=T -> (hit halts the system) -> state
//                  -> clear -> resume                        (every 4th)
//   + metrics                                                (every 10th)
//
// T is set just ahead of p1's counter, from the seed.  Every debugger
// operation crosses the control socket, the session server and the
// reactor, so halt and breakpoint latency are measured as a user sees them.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "bench.hpp"
#include "debugger/harness.hpp"
#include "debugger/session_client.hpp"
#include "debugger/session_server.hpp"
#include "forwarder.hpp"

namespace perfbench {

using namespace ddbg;

namespace {

constexpr std::uint32_t kUsers = 3;
constexpr std::uint32_t kTokens = 3;
constexpr double kWindowWall = 0.015;
// Set-ups per run: one set-up's CPU time varies by a third with what its
// threads' start-up preempts, so setup_s is the median of many.
constexpr int kSetups = 61;
constexpr Duration kTimeout = Duration::seconds(5);

struct TcpSystem {
  Probes probes;
  std::unique_ptr<TcpDebugHarness> harness;
  std::unique_ptr<TcpHost> host;
  std::unique_ptr<SessionServer> server;
  SessionClient client;

  TcpSystem() = default;
  TcpSystem(const TcpSystem&) = delete;
  TcpSystem& operator=(const TcpSystem&) = delete;
  // The server must release its sessions while the runtime still runs.
  ~TcpSystem() { stop(); }
  void stop() {
    client.close();
    if (server) server->stop();
    if (harness) harness->shutdown();
  }
};

std::unique_ptr<TcpSystem> build(const Options& options, RunResult& result) {
  const std::uint64_t seed = options.seed;
  auto system = std::make_unique<TcpSystem>();
  ForwarderConfig fcfg;
  fcfg.tokens_per_process = kTokens;
  fcfg.seed = mix(seed, 1);
  HarnessConfig config;
  config.seed = mix(seed, 2);
  config.shim_options.stamp_vector_clocks = false;
  system->harness = std::make_unique<TcpDebugHarness>(
      Topology::ring(kUsers), make_forwarders(kUsers, fcfg, &system->probes),
      std::move(config));
  TcpRuntime& tcp = system->harness->tcp();
  system->host = std::make_unique<TcpHost>(tcp);
  SessionServerConfig scfg;
  scfg.command_timeout = kTimeout;
  scfg.num_user_processes = kUsers;
  system->server = std::make_unique<SessionServer>(
      *system->host, system->harness->debugger(),
      system->harness->debugger_id(), &tcp.metrics(), scfg);
  system->server->set_metrics_json_source(
      [&tcp] { return tcp.metrics().snapshot(tcp.now()).to_json(); });
  tcp.set_control_acceptor(system->server->acceptor());
  // Set-up runs on the program CPU, so the runtime's threads (and the
  // session threads its reactor starts) inherit it; the client then moves
  // to the driver CPU.
  pin_self(options.placement.program);
  const bool started = system->harness->start();
  const bool connected = started && system->client.connect(tcp.control_port()).ok();
  auto hello = connected ? system->client.call(SessionOp::kHello, "perfbench")
                         : Result<SessionResponse>(Error(ErrorCode::kInternal,
                                                         "not connected"));
  pin_self(options.placement.driver);
  const bool ok = hello.ok() && hello.value().ok();
  result.op(ok);
  if (!ok) result.violation("tcp_session: runtime start or client connect failed");
  return system;
}

// One session request, timed and checked.  Every response must be ok; a
// transport failure (timeout, dead socket) counts against fail_ratio.
std::optional<SessionResponse> request(Run& run, SessionClient& client,
                                       SessionOp op, const char* name,
                                       std::uint64_t id,
                                       std::vector<double>* latency_ms,
                                       std::string text = {},
                                       std::int64_t number = 0) {
  const double t0 = wall_s();
  Result<SessionResponse> response = [&] {
    SpanRecorder::Scope span(run.spans, name, "session", id);
    return client.call(op, std::move(text), number, Duration::seconds(10));
  }();
  const double ms = (wall_s() - t0) * 1e3;
  const bool ok = response.ok() && response.value().ok();
  run.result.op(ok);
  if (!response.ok()) {
    run.result.violation(std::string("tcp_session: ") + name +
                         " request failed: " + response.error().message());
    return std::nullopt;
  }
  if (!response.value().ok()) {
    run.result.violation(std::string("tcp_session: ") + name +
                         " answered an error: " + response.value().text);
    return std::nullopt;
  }
  if (latency_ms != nullptr) latency_ms->push_back(ms);
  return std::move(response).value();
}

}  // namespace

void run_tcp_session(Run& run) {
  RunResult& result = run.result;
  const std::uint64_t seed = run.options.seed;
  const std::uint64_t tokens = std::uint64_t{kUsers} * kTokens;

  std::unique_ptr<TcpSystem> system;
  for (int i = 0; i < kSetups; ++i) {
    system.reset();
    const double t0 = thread_cpu_s();
    system = build(run.options, result);
    const double cpu = thread_cpu_s() - t0;
    // Start, connect and hello ran on the program CPU: scale by its speed
    // there.
    const double ref = reference_cpu_s(run.options.placement.program);
    result.setup_s.push_back(at_reference(cpu, ref));
    if (!result.violations.empty()) return;
  }
  TcpDebugHarness& harness = *system->harness;
  TcpRuntime& tcp = harness.tcp();
  DebuggerProcess& debugger = harness.debugger();
  SessionClient& client = system->client;
  ForwarderProbe& p1 = *system->probes[1];

  const Counters before = read_counters(tcp.metrics());
  std::uint64_t late_arms = 0;
  double per_process_rate = 0;  // p1 deliveries/s in the last window
  const double deadline = wall_s() + run.options.seconds;
  for (std::uint64_t cycle = 0; wall_s() < deadline; ++cycle) {
    const bool traced = run.options.trace && cycle % 2 == 0;
    run.spans.set_active(traced);
    const bool capture = run.options.trace && cycle == 0;
    set_capture(system->probes, capture, 1024);
    SpanRecorder::Scope span(run.spans, "cycle", "bench", cycle);

    // Traffic window.
    const double r0 = total_received(system->probes);
    const double p0 = static_cast<double>(p1.received.load());
    const double t0 = wall_s();
    const double c0 = cpu_s();
    std::this_thread::sleep_for(std::chrono::duration<double>(kWindowWall));
    const double elapsed = wall_s() - t0;
    const double window_cpu = cpu_s() - c0;
    const double msgs = total_received(system->probes) - r0;
    per_process_rate = (static_cast<double>(p1.received.load()) - p0) / elapsed;
    set_capture(system->probes, false);

    if (cycle % 4 == 3) {
      // Breakpoint cycle: T lies ~4 ms of p1's traffic ahead, plus a
      // seed-derived jitter.
      const auto ahead = static_cast<std::int64_t>(
          std::max(500.0, per_process_rate * 0.004) +
          static_cast<double>(mix(seed, 1000 + cycle) % 256));
      const std::int64_t target =
          static_cast<std::int64_t>(p1.received.load()) + ahead;
      p1.watch_reached_ns.store(-1);
      p1.watch_target.store(target);
      auto armed = request(run, client, SessionOp::kBreak, "break", cycle,
                           nullptr, "p1:hops>=" + std::to_string(target));
      if (!armed) break;
      bool halted = false;
      {
        SpanRecorder::Scope wait_span(run.spans, "wait_for_halt", "debugger",
                                      cycle);
        halted = TcpRuntime::wait_until(
            [&] { return debugger.latest_halt_complete(); }, kTimeout);
      }
      result.op(halted);
      if (!halted) {
        result.violation("tcp_session: breakpoint p1:hops>=" +
                         std::to_string(target) + " did not halt the system");
        break;
      }
      auto wave = debugger.latest_halt_wave();
      conservation_gate(run, wave->state, kUsers, tokens, wave->id,
                        "tcp_session breakpoint");
      // p1 halts at the end of the handler that hit, so its snapshot shows
      // the hit value; a larger one means the watch armed after T passed.
      ForwarderCounts counts;
      const std::int64_t reached = p1.watch_reached_ns.load();
      if (decode_counts(wave->state.at(ProcessId(1)).state, counts) &&
          static_cast<std::int64_t>(counts.received) == target &&
          reached >= 0) {
        result.bp_halt_ms.push_back(
            static_cast<double>(wave->completed_at.ns - reached) / 1e6);
      } else {
        ++late_arms;
      }
      if (!request(run, client, SessionOp::kState, "state", cycle,
                   &result.request_ms)) {
        break;
      }
      if (!request(run, client, SessionOp::kClear, "clear", cycle, nullptr,
                   {}, armed->number)) {
        break;
      }
      p1.watch_target.store(-1);
    } else {
      const double h0 = wall_s();
      auto halt = request(run, client, SessionOp::kHalt, "halt", cycle,
                          nullptr);
      if (!halt) break;
      const double halt_ms = (wall_s() - h0) * 1e3;
      result.halt_ms.push_back(halt_ms);
      if (auto wave = debugger.halt_wave(static_cast<std::uint64_t>(halt->number))) {
        const double wave_ms =
            static_cast<double>((wave->completed_at - wave->started_at).ns) /
            1e6;
        result.wave_ms.push_back(wave_ms);
        result.session_overhead_ms.push_back(halt_ms - wave_ms);
      }
      // The S_h the user receives is the one checked.
      auto state = request(run, client, SessionOp::kState, "state", cycle,
                           &result.request_ms);
      if (!state) break;
      auto decoded = GlobalState::decode_snapshots(
          HaltId(static_cast<std::uint64_t>(state->number)), state->payload);
      if (!decoded.ok()) {
        result.violation("tcp_session: state payload does not decode: " +
                         decoded.error().message());
        break;
      }
      conservation_gate(run, decoded.value(), kUsers, tokens,
                        static_cast<std::uint64_t>(state->number),
                        "tcp_session");
      if (!result.capture.state) result.capture.state = decoded.value();
      if (!request(run, client, SessionOp::kHits, "hits", cycle,
                   &result.request_ms)) {
        break;
      }
      if (cycle % 10 == 9 &&
          !request(run, client, SessionOp::kMetrics, "metrics", cycle,
                   &result.request_ms)) {
        break;
      }
    }
    // While the system is halted its CPU is idle: time the reference
    // work there, for the window just measured.
    result.window(msgs, elapsed, window_cpu,
                  reference_cpu_s(run.options.placement.program), traced);
    const double q0 = wall_s();
    if (!request(run, client, SessionOp::kResume, "resume", cycle, nullptr)) {
      break;
    }
    result.resume_ms.push_back((wall_s() - q0) * 1e3);
  }
  run.spans.set_active(true);

  const Counters after = read_counters(tcp.metrics());
  time_metrics_snapshot(run, tcp.metrics(), tcp.now());
  system->stop();
  collect_captured(system->probes, result.capture.messages);

  layer_counters(result, before, after,
                 static_cast<double>(result.halt_ms.size() +
                                     result.bp_halt_ms.size() + late_arms));
  if (late_arms > 0) {
    std::printf("tcp_session: %llu breakpoint cycles armed after p1 passed T "
                "(not counted in bp_halt_ms)\n",
                static_cast<unsigned long long>(late_arms));
  }
  // Every frame is parsed and decoded once at its receiver.
  const double app = static_cast<double>(after.totals.delivered[0] -
                                         before.totals.delivered[0]);
  const double all = static_cast<double>(after.totals.messages_delivered -
                                         before.totals.messages_delivered);
  result.ops.msg_decode = app > 0 ? all / app : 0.0;
  result.ops.frame_parse = result.ops.msg_decode;
}

}  // namespace perfbench
