// Shared pieces of the benchmark: options, the result every workload
// fills in, clocks, and the correctness checks applied to every S_h.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/event.hpp"
#include "core/global_state.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"

namespace perfbench {

// Where threads run.  On a shared VM, hypervisor steal stalls whichever
// vCPU it hits, so a run whose process threads hand messages across vCPUs
// swings by 2x from one minute to the next.  The program's threads
// therefore share one CPU and the benchmark's driving thread (the
// debugger's user) runs on another; -1 leaves placement alone.
struct Placement {
  int program = -1;
  int driver = -1;
};
// The last two CPUs the process may run on (the same one twice on a
// single-CPU machine).
[[nodiscard]] Placement choose_placement();
// Pins the calling thread (and threads it starts later) to `cpu`.
void pin_self(int cpu);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Placement placement;
};

// splitmix64 of (seed, salt): every seed-derived input goes through this.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

[[nodiscard]] inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
// CPU time of the whole process (all threads), in seconds.
[[nodiscard]] double cpu_s();
// CPU time of the calling thread, in seconds.  A vCPU the hypervisor
// steals, or a thread another one preempts, adds wall time but no CPU
// time.
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] double peak_rss_mb();

// Reference speed.  CPU time alone still moves by a third from minute to
// minute on a shared host (other tenants on the same cores and caches),
// and a whole run can fall in a slow stretch.  So each CPU-timed figure
// is paired with a run of fixed reference work measured right next to it
// (hash map updates, heap pushes, small allocations and copies: the mix
// of the program's own hot paths), and scaled to the speed at which that
// work takes kReferenceS.  A change to the program moves these figures as
// it moves raw CPU time; a change in the host's speed moves both the
// figure and its reference and cancels out.
inline constexpr double kReferenceS = 1e-3;
// Runs the reference work on the calling thread, moved to `cpu` for the
// purpose when cpu >= 0, and returns the CPU seconds it took.
[[nodiscard]] double reference_cpu_s(int cpu = -1);
// `cpu_seconds` measured next to a reference run of `ref_s`, at reference
// speed.
[[nodiscard]] inline double at_reference(double cpu_seconds, double ref_s) {
  return ref_s > 0 ? cpu_seconds * kReferenceS / ref_s : cpu_seconds;
}

// How often each priced operation runs per delivered application message
// on a workload's hot path (the ledger's multipliers).
struct LedgerOps {
  double msg_encode = 0;
  double msg_decode = 0;
  double frame_parse = 0;
  double pool_lease = 0;
  double predicate_match = 0;
  double reliable_stage = 0;
  double reliable_on_frame = 0;
  double record_delivery = 0;
};

// Inputs captured from the workload's own run for the ledger's timings.
struct Capture {
  std::vector<ddbg::Message> messages;   // application messages as delivered
  std::vector<ddbg::LocalEvent> events;  // shim events (trace sink)
  std::optional<ddbg::GlobalState> state;  // one assembled S_h
  // The breakpoint the workload arms (a watch that never fires for
  // workloads that arm none).
  std::string breakpoint = "p1:hops>=1000000000";
  // The workload's shim configuration, for pricing one shim delivery.
  std::uint32_t ring_size = 3;
  bool vector_clocks = false;
  bool trace_sink = false;
};

struct RunResult {
  // Correctness.
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // End-to-end samples.
  // CPU time of the thread that sets the system up, construction through
  // start, at reference speed.
  std::vector<double> setup_s;
  std::vector<double> halt_ms;
  std::vector<double> resume_ms;
  std::vector<double> bp_halt_ms;
  std::vector<double> request_ms;
  double window_msgs = 0;  // app deliveries inside untraced traffic windows
  double window_s = 0;
  double window_cpu_s = 0;
  double traced_msgs = 0;  // the same, inside traced windows
  double traced_cpu_s = 0;
  double replay_deliveries = 0;
  double replay_s = 0;

  // Per-layer samples and values.
  std::vector<double> wave_ms;
  std::vector<double> session_overhead_ms;
  std::vector<double> conservation_ms;
  std::map<std::string, double> layer;
  LedgerOps ops;
  Capture capture;

  // Per-window delivery rates of the untraced windows, per wall second
  // and per process CPU second at reference speed.  app_msgs_per_cpu_s is
  // the median of the latter: time the machine takes away from the
  // program (steal, other tenants) moves wall rates by 2x, and the host's
  // speed moves raw CPU rates by a third, but neither moves these.
  std::vector<double> window_rates;
  std::vector<double> window_cpu_rates;

  void violation(std::string what) { violations.push_back(std::move(what)); }
  // Accounts one traffic window of `seconds` (and `cpu` process CPU
  // seconds, next to a reference run of `ref` CPU seconds) in which
  // `msgs` application messages were delivered.
  void window(double msgs, double seconds, double cpu, double ref,
              bool traced) {
    if (traced) {
      traced_msgs += msgs;
      traced_cpu_s += cpu;
      return;
    }
    window_msgs += msgs;
    window_s += seconds;
    window_cpu_s += cpu;
    if (seconds > 0) window_rates.push_back(msgs / seconds);
    if (cpu > 0) window_cpu_rates.push_back(msgs / at_reference(cpu, ref));
  }
  // Counts one operation; a failed one also counts against fail_ratio.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct Run {
  const Options& options;
  RunResult& result;
  SpanRecorder& spans;
};

// Token conservation on one S_h of `users` forwarders carrying `tokens`
// tokens: every user reported, sum(sent) - sum(received) equals the
// messages recorded in channel states, and that equals the token count.
// Returns a description of the first violation, or nullopt.
[[nodiscard]] std::optional<std::string> check_conservation(
    const ddbg::GlobalState& state, std::uint32_t users, std::uint64_t tokens);

// Runs check_conservation inside an "analysis" span, times it, and records
// a violation tagged with `where`.
void conservation_gate(Run& run, const ddbg::GlobalState& state,
                       std::uint32_t users, std::uint64_t tokens,
                       std::uint64_t wave, const char* where);

// Counters of one MetricsRegistry at a point in time (deltas bracket a
// run's measured part).
struct Counters {
  ddbg::obs::TotalsSnapshot totals;
  ddbg::obs::TransportSnapshot transport;
  ddbg::obs::TierSnapshot tier;
  ddbg::obs::SessionSnapshot session;
};
[[nodiscard]] Counters read_counters(const ddbg::obs::MetricsRegistry& metrics);

// Fills the counter-derived per-layer metrics (runtime.*, net.* ratios,
// common.pool_hit_ratio, core.halt_markers_per_wave, debugger.*_per_wave)
// from the counter deltas over the measured part of a run.
void layer_counters(RunResult& result, const Counters& before,
                    const Counters& after, double waves);

// Times a metrics snapshot + JSON rendering (obs layer) a few times.
void time_metrics_snapshot(Run& run, const ddbg::obs::MetricsRegistry& metrics,
                           ddbg::TimePoint now);

// Prices each hot-path operation on the captured inputs and fills the
// ledger rows (net.*_ns, clock.*_ns, common.pool_lease_ns,
// core.predicate_match_ns, core.global_state_encode_ms,
// replay.record_delivery_ns, ledger.*).
void run_ledger(Run& run);

// The four workloads.
void run_tcp_session(Run& run);
void run_sim_vc_hotpath(Run& run);
void run_sim_tier_halt(Run& run);
void run_threads_dup_replay(Run& run);

}  // namespace perfbench
