// perfbench: the repository benchmark.
//
//   perfbench --workload tcp_session|sim_vc_hotpath|sim_tier_halt|
//                        threads_dup_replay
//             --seed N --seconds S --trace 0|1
//
// Runs one workload for S seconds and prints every end-to-end metric by
// name with its unit and sample count, then (traced runs) every per-layer
// metric, the ledger's decomposition row and the per-layer span self
// times.  The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the gated end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Any correctness violation is printed on stderr, reported
// as "correct": false, and makes the exit code 1.
#include <malloc.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics every workload measures steadily; these are gated
// (BENCHMARK.json "end_to_end").  Throughput and set-up are counted in
// CPU seconds at reference speed (bench.hpp), and so are halts and
// resumes on the simulator workloads, whose clock is virtual: on a shared
// machine the wall-clock versions swing by half from run to run.  The others are printed, not gated: the
// wall rate app_msgs_per_s for that reason, the tails (halt_ms_p90) swing
// run to run on the threaded workloads, and bp_halt, request and replay
// figures exist on one workload each.
constexpr MetricDef kGated[] = {
    {"setup_s", "s"},        {"app_msgs_per_cpu_s", "1/s"},
    {"halt_ms_p50", "ms"},   {"resume_ms_p50", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.run_for_s", "s"},
    {"sim.events_per_app_msg", "1/msg"},
    {"runtime.epoll_wakeups_per_msg", "1/msg"},
    {"runtime.frames_per_write", "1/write"},
    {"runtime.deliver_batch_mean", "msgs"},
    {"runtime.eagain_deferrals", "count"},
    {"net.wire_bytes_per_app_msg", "B/msg"},
    {"net.msg_encode_ns", "ns"},
    {"net.msg_decode_ns", "ns"},
    {"net.frame_parse_ns", "ns"},
    {"net.reliable_stage_ns", "ns"},
    {"net.reliable_on_frame_ns", "ns"},
    {"net.dup_suppressed_per_msg", "1/msg"},
    {"common.pool_hit_ratio", "ratio"},
    {"common.pool_lease_ns", "ns"},
    {"clock.vc_merge_ns", "ns"},
    {"clock.vc_compare_ns", "ns"},
    {"clock.vc_encode_ns", "ns"},
    {"clock.vc_changed_entry_share", "ratio"},
    {"core.events_per_app_msg", "1/msg"},
    {"core.predicate_match_ns", "ns"},
    {"core.shim_delivery_ns", "ns"},
    {"workload.handler_ns", "ns"},
    {"core.halt_markers_per_wave", "1/wave"},
    {"core.global_state_bytes_per_wave", "B"},
    {"core.global_state_encode_ms", "ms"},
    {"debugger.wave_ms_p50", "ms"},
    {"debugger.session_overhead_ms_p50", "ms"},
    {"debugger.acks_aggregated_per_wave", "1/wave"},
    {"debugger.markers_suppressed_per_wave", "1/wave"},
    {"debugger.request_errors", "count"},
    {"analysis.conservation_check_ms", "ms"},
    {"obs.snapshot_json_bytes", "B"},
    {"obs.snapshot_ms", "ms"},
    {"replay.record_delivery_ns", "ns"},
    {"replay.log_bytes_per_delivery", "B"},
    {"replay.driver_run_s", "s"},
    {"ledger.ns_per_app_msg", "ns"},
    {"ledger.unexplained_ns_per_msg", "ns"},
    {"trace.overhead_ratio", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "workloads: tcp_session sim_vc_hotpath sim_tier_halt "
               "threads_dup_replay\n");
  return 2;
}

double rate(double n, double s) { return s > 0 ? n / s : 0.0; }

// One end-to-end latency line: median or a tail percentile, with the
// sample count and the highest percentile the samples support.
void print_latency(const char* name, const std::vector<double>& samples,
                   double p) {
  if (samples.empty()) {
    std::printf("  %-24s n/a (not exercised on this workload)\n", name);
    return;
  }
  const auto supported = highest_supported_percentile(samples.size());
  std::printf("  %-24s %12.4f ms   n=%zu (p10 %.4f p25 %.4f p75 %.4f; "
              "highest percentile with >=10 beyond: %s%g)\n",
              name, percentile(samples, p), samples.size(),
              percentile(samples, 10), percentile(samples, 25),
              percentile(samples, 75), supported ? "p" : "none",
              supported.value_or(0.0));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = std::strcmp(value, "0") == 0 || options.trace;
    } else {
      return usage();
    }
  }
  if (options.workload.empty() || !have_trace || options.seconds <= 0) {
    return usage();
  }
  void (*workload)(Run&) = nullptr;
  if (options.workload == "tcp_session") workload = run_tcp_session;
  if (options.workload == "sim_vc_hotpath") workload = run_sim_vc_hotpath;
  if (options.workload == "sim_tier_halt") workload = run_sim_tier_halt;
  if (options.workload == "threads_dup_replay") {
    workload = run_threads_dup_replay;
  }
  if (workload == nullptr) return usage();

  // A fixed mmap threshold keeps glibc from raising it after the first
  // large free, so big buffers (replay logs, S_h copies) go back to the
  // system when freed and peak_rss_mb tracks live data, not how many
  // rounds a run happened to fit.
  ::mallopt(M_MMAP_THRESHOLD, 1 << 20);
  options.placement = choose_placement();
  pin_self(options.placement.driver);
  RunResult result;
  SpanRecorder spans(options.trace);
  Run run{options, result, spans};
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "program_cpu=%d driver_cpu=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.placement.program,
              options.placement.driver);
  workload(run);
  if (options.trace && result.violations.empty()) run_ledger(run);

  const double app_rate = median(result.window_rates);
  const double app_cpu_rate = median(result.window_cpu_rates);
  const double rss = peak_rss_mb();
  std::printf("end-to-end:\n");
  std::printf("  %-24s %12.6f s    n=%zu setups, CPU s of the setting-up "
              "thread at reference speed (median; p25 %.6f p75 %.6f)\n",
              "setup_s", median(result.setup_s), result.setup_s.size(),
              percentile(result.setup_s, 25), percentile(result.setup_s, 75));
  std::printf("  %-24s %12.1f 1/s  n=%zu windows, per process CPU second "
              "at reference speed (median; quartiles %.1f .. %.1f) over "
              "%.3f CPU s\n",
              "app_msgs_per_cpu_s", app_cpu_rate,
              result.window_cpu_rates.size(),
              percentile(result.window_cpu_rates, 25),
              percentile(result.window_cpu_rates, 75), result.window_cpu_s);
  std::printf("  %-24s %12.1f 1/s  n=%zu windows, per wall second (median; "
              "quartiles %.1f .. %.1f) over %.3f s\n",
              "app_msgs_per_s", app_rate, result.window_rates.size(),
              percentile(result.window_rates, 25),
              percentile(result.window_rates, 75), result.window_s);
  print_latency("halt_ms_p50", result.halt_ms, 50);
  print_latency("halt_ms_p90", result.halt_ms, 90);
  print_latency("resume_ms_p50", result.resume_ms, 50);
  print_latency("bp_halt_ms_p50", result.bp_halt_ms, 50);
  print_latency("bp_halt_ms_p90", result.bp_halt_ms, 90);
  print_latency("request_ms_p50", result.request_ms, 50);
  print_latency("request_ms_p99", result.request_ms, 99);
  if (result.replay_s > 0) {
    std::printf("  %-24s %12.1f 1/s  n=%.0f deliveries over %.3f s\n",
                "replay_deliveries_per_s",
                rate(result.replay_deliveries, result.replay_s),
                result.replay_deliveries, result.replay_s);
  } else {
    std::printf("  %-24s n/a (not exercised on this workload)\n",
                "replay_deliveries_per_s");
  }
  std::printf("  %-24s %12.3f MB\n", "peak_rss_mb", rss);
  std::printf("  %-24s %12.6f      %llu failed of %llu operations\n",
              "fail_ratio",
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 0.0,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  std::map<std::string, double> values;
  values["setup_s"] = median(result.setup_s);
  values["app_msgs_per_cpu_s"] = app_cpu_rate;
  values["halt_ms_p50"] = percentile(result.halt_ms, 50);
  values["resume_ms_p50"] = percentile(result.resume_ms, 50);
  values["peak_rss_mb"] = rss;

  if (options.trace) {
    auto& layer = result.layer;
    layer["debugger.wave_ms_p50"] = median(result.wave_ms);
    layer["debugger.session_overhead_ms_p50"] =
        median(result.session_overhead_ms);
    layer["analysis.conservation_check_ms"] = median(result.conservation_ms);
    const double traced_rate = rate(result.traced_msgs, result.traced_cpu_s);
    layer["trace.overhead_ratio"] =
        traced_rate > 0
            ? rate(result.window_msgs, result.window_cpu_s) / traced_rate
            : 0;
    std::printf("per-layer:\n");
    for (const MetricDef& m : kPerLayer) {
      values[m.name] = layer[m.name];
      std::printf("  %-38s %16.6f %s\n", m.name, layer[m.name], m.unit);
    }
    std::printf("span self time (ms) over %zu spans:\n", spans.size());
    for (const auto& [name, ms] : spans.self_ms_by_layer()) {
      std::printf("  %-10s %12.3f\n", name.c_str(), ms);
    }
    ::mkdir(".bench_out", 0755);
    const std::string path = ".bench_out/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".trace.json";
    if (spans.write_chrome_json(path)) {
      std::printf("spans written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }

  for (const std::string& v : result.violations) {
    std::fprintf(stderr, "perfbench: VIOLATION: %s\n", v.c_str());
  }
  const bool correct = result.violations.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& m) {
    // A run cut short by a violation can leave a ratio without a base.
    const double value = std::isfinite(values[m.name]) ? values[m.name] : 0.0;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, value, m.unit);
    json += buf;
    first = false;
  };
  if (options.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kGated) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
