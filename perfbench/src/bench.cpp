#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <cstring>
#include <ctime>
#include <deque>
#include <queue>
#include <unordered_map>

#include "forwarder.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace ddbg;

Placement choose_placement() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  Placement placement;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    placement.driver = placement.program;
    placement.program = c;
  }
  if (placement.driver < 0) placement.driver = placement.program;
  return placement;
}

void pin_self(int cpu) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ::sched_setaffinity(0, sizeof one, &one);
}

double cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

struct ReferenceState {
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::priority_queue<std::uint64_t> heap;
  std::deque<std::vector<std::uint8_t>> fifo;
  std::uint8_t bytes[128] = {};
};

}  // namespace

double reference_cpu_s(int cpu) {
  // About 1 ms of work on a 4-vCPU Xeon VM.  Only the driving thread calls
  // this, so the state needs no lock.
  constexpr int kIterations = 6000;
  static ReferenceState state;
  static volatile std::uint64_t sink = 0;
  cpu_set_t home;
  CPU_ZERO(&home);
  const bool move = cpu >= 0 &&
                    ::sched_getaffinity(0, sizeof home, &home) == 0;
  if (move) pin_self(cpu);
  const double t0 = thread_cpu_s();
  std::uint64_t x = 0;
  for (int i = 0; i < kIterations; ++i) {
    x = mix(x, static_cast<std::uint64_t>(i));
    state.map[x & 4095] += x;
    state.heap.push(x);
    if (state.heap.size() > 1024) state.heap.pop();
    std::vector<std::uint8_t> buffer(16 + (x & 63));
    std::memcpy(buffer.data(), state.bytes, buffer.size());
    buffer[0] = static_cast<std::uint8_t>(x);
    state.fifo.push_back(std::move(buffer));
    if (state.fifo.size() > 256) state.fifo.pop_front();
  }
  const double ref = thread_cpu_s() - t0;
  sink = sink + x + state.fifo.back()[0];
  if (move) ::sched_setaffinity(0, sizeof home, &home);
  return ref;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::optional<std::string> check_conservation(const GlobalState& state,
                                              std::uint32_t users,
                                              std::uint64_t tokens) {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t in_channels = 0;
  for (std::uint32_t p = 0; p < users; ++p) {
    if (!state.has(ProcessId(p))) {
      return "S_h lacks process p" + std::to_string(p);
    }
    const ProcessSnapshot& snapshot = state.at(ProcessId(p));
    ForwarderCounts counts;
    if (!decode_counts(snapshot.state, counts)) {
      return "S_h state of p" + std::to_string(p) + " does not decode";
    }
    sent += counts.sent;
    received += counts.received;
    for (const ChannelState& channel : snapshot.in_channels) {
      in_channels += channel.messages.size();
    }
  }
  if (sent - received != in_channels || in_channels != tokens) {
    return "conservation broken: sent=" + std::to_string(sent) +
           " received=" + std::to_string(received) +
           " in_channels=" + std::to_string(in_channels) +
           " tokens=" + std::to_string(tokens);
  }
  return std::nullopt;
}

void conservation_gate(Run& run, const GlobalState& state,
                       std::uint32_t users, std::uint64_t tokens,
                       std::uint64_t wave, const char* where) {
  std::optional<std::string> broken;
  const double t0 = wall_s();
  {
    SpanRecorder::Scope span(run.spans, "conservation_check", "analysis",
                             wave);
    broken = check_conservation(state, users, tokens);
  }
  run.result.conservation_ms.push_back((wall_s() - t0) * 1e3);
  if (broken) {
    run.result.violation(std::string(where) + " wave " +
                         std::to_string(wave) + ": " + *broken);
  }
}

Counters read_counters(const obs::MetricsRegistry& metrics) {
  // snapshot() also renders every process and channel; the totals are all
  // the ratios need, plus the transport/tier/session blocks.
  obs::MetricsSnapshot snapshot = metrics.snapshot();
  return Counters{snapshot.totals, snapshot.transport, snapshot.tier,
                  snapshot.session};
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void layer_counters(RunResult& result, const Counters& before,
                    const Counters& after, double waves) {
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const auto& t0 = before.transport;
  const auto& t1 = after.transport;
  const double app_delivered =
      d(before.totals.delivered[0], after.totals.delivered[0]);
  const double app_sent = d(before.totals.sent[0], after.totals.sent[0]);
  const double leases =
      d(t0.pool_hits, t1.pool_hits) + d(t0.pool_misses, t1.pool_misses);

  auto& layer = result.layer;
  layer["runtime.epoll_wakeups_per_msg"] =
      ratio(d(t0.epoll_wakeups, t1.epoll_wakeups), app_delivered);
  layer["runtime.frames_per_write"] =
      ratio(d(t0.write_batch_frames, t1.write_batch_frames),
            d(t0.write_batches, t1.write_batches));
  layer["runtime.deliver_batch_mean"] =
      ratio(d(t0.deliver_batch_messages, t1.deliver_batch_messages),
            d(t0.deliver_batches, t1.deliver_batches));
  layer["runtime.eagain_deferrals"] = d(t0.eagain_deferrals, t1.eagain_deferrals);
  layer["net.wire_bytes_per_app_msg"] =
      ratio(d(before.totals.bytes_sent, after.totals.bytes_sent), app_sent);
  layer["net.dup_suppressed_per_msg"] =
      ratio(d(t0.dup_suppressed, t1.dup_suppressed), app_delivered);
  layer["common.pool_hit_ratio"] = ratio(d(t0.pool_hits, t1.pool_hits), leases);
  layer["core.halt_markers_per_wave"] =
      ratio(d(before.totals.sent[1], after.totals.sent[1]), waves);
  layer["debugger.acks_aggregated_per_wave"] =
      ratio(d(before.tier.acks_aggregated, after.tier.acks_aggregated), waves);
  layer["debugger.markers_suppressed_per_wave"] = ratio(
      d(before.tier.markers_suppressed, after.tier.markers_suppressed), waves);
  layer["debugger.request_errors"] =
      d(before.session.request_errors, after.session.request_errors);

  // Every substrate leases one pooled buffer per encoded frame, so leases
  // per application message count encodes too (control-plane frames
  // included, spread over the application traffic).
  result.ops.pool_lease = ratio(leases, app_sent);
  result.ops.msg_encode = result.ops.pool_lease;
}

void time_metrics_snapshot(Run& run, const obs::MetricsRegistry& metrics,
                           TimePoint now) {
  std::vector<double> ms;
  std::size_t bytes = 0;
  for (int i = 0; i < 5; ++i) {
    const double t0 = wall_s();
    {
      SpanRecorder::Scope span(run.spans, "metrics_snapshot", "obs",
                               static_cast<std::uint64_t>(i));
      bytes = metrics.snapshot(now).to_json().size();
    }
    ms.push_back((wall_s() - t0) * 1e3);
  }
  run.result.layer["obs.snapshot_ms"] = median(ms);
  run.result.layer["obs.snapshot_json_bytes"] = static_cast<double>(bytes);
}

}  // namespace perfbench
