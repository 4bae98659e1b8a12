// ddbg_target: a debuggable TCP-runtime workload with the control-socket
// session server attached — the process `ddbg` connects to.
//
//   ddbg_target --workload ring --n 6 --port-file /tmp/port
//               --run-for 60 --stop-file /tmp/stop --metrics-out m.json
//               --record /tmp/rec --chaos "drop=0.02,delay=0.05"
//
// Prints "DDBG_CONTROL_PORT=<port>" on stdout once the listener is live
// (and publishes port + PID to --port-file atomically — see
// debugger/port_file.hpp for the stale-entry handling).  Runs until
// --run-for elapses or --stop-file appears, then tears down and writes the
// final ddbg.metrics.v1 snapshot (wrapped in the bench envelope
// tools/validate_metrics.py checks) to --metrics-out.
//
// --record DIR attaches a ReplayRecorder to the whole stack and writes
// DIR/replay.log at shutdown; a `replay load DIR/replay.log` + `replay
// run` in any attached ddbg session (or tools/replay_run) then re-executes
// the run deterministically in the simulator.  --chaos SPEC runs the
// workload under a fault plan (net/fault_plan.hpp spec syntax) — with
// --record, the fault draws are logged as annotations and the replay is
// the fault-free equivalent run.
//
// Workloads:
//   ring       token ring (default) — lively, deadlock-free
//   gossip     unbounded gossip ring
//   resources  greedy resource ring — deadlocks almost immediately, for
//              exercising the `deadlock` verdict end to end
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "debugger/harness.hpp"
#include "debugger/port_file.hpp"
#include "debugger/session_server.hpp"
#include "replay/recorder.hpp"
#include "replay/replay_session.hpp"
#include "workload/behaviors.hpp"
#include "workload/resources.hpp"

using namespace ddbg;

namespace {

struct Options {
  std::string workload = "ring";
  std::uint32_t n = 6;
  std::uint32_t fanout = 0;  // 0 = flat debugger
  int run_for_seconds = 60;
  std::string port_file;
  std::string stop_file;
  std::string metrics_out;
  std::string record_dir;
  std::string chaos;
  std::uint64_t seed = 1;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workload ring|gossip|resources] [--n N] [--fanout K]\n"
      "          [--run-for SECONDS] [--port-file PATH] [--stop-file PATH]\n"
      "          [--metrics-out PATH] [--record DIR] [--chaos SPEC]\n"
      "          [--seed S]\n",
      argv0);
  return 2;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--workload") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.workload = v;
    } else if (arg == "--n") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.n = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--fanout") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.fanout = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--run-for") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.run_for_seconds = std::atoi(v);
    } else if (arg == "--port-file") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.port_file = v;
    } else if (arg == "--stop-file") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.stop_file = v;
    } else if (arg == "--metrics-out") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.metrics_out = v;
    } else if (arg == "--record") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.record_dir = v;
    } else if (arg == "--chaos") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.chaos = v;
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.seed = static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.n < 2) {
    std::fprintf(stderr, "ddbg_target: --n must be >= 2\n");
    return 2;
  }

  // One factory for record and replay (replay/replay_session.hpp): the
  // processes a later `replay run` builds are these exact behaviors.  The
  // resources workload's acquire_delay is tuned to close the circular wait
  // past thread-startup skew even on the real network.
  auto built = make_named_workload(opt.workload, opt.n);
  if (!built.ok()) {
    std::fprintf(stderr, "ddbg_target: %s\n",
                 built.error().message().c_str());
    return 2;
  }
  Topology topology = std::move(built.value().topology);
  std::vector<ProcessPtr> processes = std::move(built.value().processes);

  HarnessConfig hcfg;
  hcfg.seed = opt.seed;
  hcfg.debugger_fanout = opt.fanout;
  if (!opt.chaos.empty()) {
    auto plan = FaultPlan::parse(opt.chaos, opt.seed);
    if (!plan.ok()) {
      std::fprintf(stderr, "ddbg_target: bad --chaos spec: %s\n",
                   plan.error().message().c_str());
      return 2;
    }
    hcfg.faults = std::make_shared<FaultPlan>(std::move(plan).value());
  }
  std::shared_ptr<ReplayRecorder> recorder;
  if (!opt.record_dir.empty()) {
    ReplayLogHeader header;
    header.seed = opt.seed;
    header.substrate = "tcp";
    header.workload = opt.workload;
    header.num_user_processes = opt.n;
    header.debugger_fanout = opt.fanout;
    header.num_channels = static_cast<std::uint32_t>(
        (opt.fanout == 0 ? topology.with_debugger()
                         : topology.with_debugger_tree(opt.fanout))
            .num_channels());
    header.fault_spec = opt.chaos;
    recorder = std::make_shared<ReplayRecorder>(header);
    hcfg.replay = recorder;
  }
  TcpDebugHarness harness(topology, std::move(processes), std::move(hcfg));
  if (recorder != nullptr) recorder->set_metrics(&harness.tcp().metrics());

  TcpHost host(harness.tcp());
  SessionServerConfig scfg;
  scfg.num_user_processes = opt.n;
  SessionServer server(host, harness.debugger(), harness.debugger_id(),
                       &harness.tcp().metrics(), scfg);
  server.set_metrics_json_source([&harness] {
    return harness.tcp().metrics().snapshot(harness.tcp().now()).to_json();
  });
  // The live server answers `replay ...` commands itself: sessions can load
  // the log of a *previous* recorded run (or, after shutdown, this one) and
  // time-travel through it in a private simulation.
  ReplayCommandHandler replay_handler;
  server.set_replay_handler(replay_handler.bound());
  harness.tcp().set_control_acceptor(server.acceptor());

  if (!harness.start()) {
    std::fprintf(stderr, "ddbg_target: runtime failed to start\n");
    return 1;
  }
  const std::uint16_t port = harness.tcp().control_port();
  std::printf("DDBG_CONTROL_PORT=%u\n", port);
  std::fflush(stdout);
  if (!opt.port_file.empty()) {
    // Atomic publish (tmp + rename) with our PID so a client never dials a
    // torn entry or a port left behind by a dead target.
    auto status = write_port_file(opt.port_file, port);
    if (!status.ok()) {
      std::fprintf(stderr, "ddbg_target: %s\n",
                   status.error().message().c_str());
    }
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(opt.run_for_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (!opt.stop_file.empty() && file_exists(opt.stop_file)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Order matters: the server must release its sessions (and any held
  // halt) while the runtime can still run the resume commands.
  server.stop();
  if (recorder != nullptr) {
    const std::string log_path =
        opt.record_dir + "/" + kReplayLogFileName;
    auto saved = recorder->save(log_path);
    if (saved.ok()) {
      std::printf("ddbg_target: wrote %s (%zu records)\n", log_path.c_str(),
                  recorder->records());
    } else {
      std::fprintf(stderr, "ddbg_target: %s\n",
                   saved.error().message().c_str());
    }
  }
  // Snapshot after the workers are joined: a running reactor can have
  // counted a delivery but not yet its batch.
  harness.shutdown();
  const std::string metrics_json =
      harness.tcp().metrics().snapshot(harness.tcp().now()).to_json();

  if (!opt.metrics_out.empty()) {
    std::ofstream out(opt.metrics_out);
    out << "{\"schema\":\"ddbg.bench.metrics.v1\",\"bench\":\"ddbg_target\","
        << "\"runs\":[{\"label\":\"" << opt.workload << "_n"
        << opt.n << "\",\"metrics\":" << metrics_json << "}]}\n";
  }
  std::printf("ddbg_target: served %llu sessions\n",
              static_cast<unsigned long long>(server.sessions_served()));
  return 0;
}
