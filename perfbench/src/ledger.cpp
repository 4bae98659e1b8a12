// The per-message cost ledger of a traced run.
//
// Each hot-path public function is timed on inputs captured from the
// workload's own run: application messages as delivered (vector clocks
// included where the workload stamps them), shim events from the trace
// sink, one assembled S_h.  The workload supplies how often each function
// runs per delivered application message (LedgerOps); the ledger row is
//
//   measured CPU ns per app message  =  sum(ns/op x ops/msg) + unexplained
//
// where the measured side is process CPU time over the untraced traffic
// windows divided by the application messages delivered in them.  The
// rows do not overlap: vector-clock merging, event emission and the trace
// sink call happen inside the shim row, so clock.* timings are reported
// beside the row, not added to it.
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "common/buffer_pool.hpp"
#include "core/debug_shim.hpp"
#include "core/predicate_parser.hpp"
#include "forwarder.hpp"
#include "net/framing.hpp"
#include "net/reliable.hpp"
#include "net/replay_hooks.hpp"
#include "replay/recorder.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace ddbg;

namespace {

constexpr double kMinTrialS = 0.004;
constexpr int kTrials = 5;

volatile std::uint64_t g_sink = 0;

// Median over kTrials of the ns per operation of `pass`, which runs one
// timed pass over `count` inputs.  `prepare` runs untimed before each pass
// (it rebuilds inputs a pass consumes).
template <class Prepare, class Pass>
double ns_per_op(std::size_t count, Prepare&& prepare, Pass&& pass) {
  if (count == 0) return 0.0;
  std::vector<double> trials;
  for (int t = 0; t < kTrials; ++t) {
    double timed = 0;
    std::size_t ops = 0;
    do {
      prepare();
      const double t0 = wall_s();
      pass();
      timed += wall_s() - t0;
      ops += count;
    } while (timed < kMinTrialS);
    trials.push_back(timed * 1e9 / static_cast<double>(ops));
  }
  return median(trials);
}

template <class Body>
double ns_per_op(std::size_t count, Body&& body) {
  return ns_per_op(
      count, [] {},
      [&] {
        for (std::size_t i = 0; i < count; ++i) body(i);
      });
}

// 64-entry clocks: the captured ones when the workload stamps vector
// clocks, otherwise clocks with seed-derived entries.
std::vector<VectorClock> clocks_at_64(const Capture& capture,
                                      std::uint64_t seed) {
  std::vector<VectorClock> clocks;
  for (const Message& m : capture.messages) {
    if (m.vclock.size() == 64) clocks.push_back(m.vclock);
  }
  if (!clocks.empty()) return clocks;
  for (std::uint64_t i = 0; i < 256; ++i) {
    ByteWriter writer;
    writer.varint(64);
    for (std::uint64_t e = 0; e < 64; ++e) {
      writer.varint(mix(seed, (i << 8) | e) % 100'000);
    }
    const Bytes bytes = std::move(writer).take();
    ByteReader reader(bytes);
    clocks.push_back(VectorClock::decode(reader).value());
  }
  return clocks;
}

// A process context that runs handlers in isolation: sends are dropped,
// timers never fire.  Lets the ledger price one delivery through the
// DebugShim against the same delivery to the bare forwarder.
class LedgerContext final : public ProcessContext {
 public:
  LedgerContext(Topology topology, ProcessId self)
      : topology_(std::move(topology)), self_(self) {}

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] TimePoint now() const override { return TimePoint{0}; }
  [[nodiscard]] const Topology& topology() const override { return topology_; }
  void send(ChannelId, Message message) override {
    g_sink = g_sink + message.payload.size();
  }
  TimerId set_timer(Duration) override { return TimerId(++timers_); }
  void cancel_timer(TimerId) override {}
  [[nodiscard]] Rng& rng() override { return rng_; }
  void stop_self() override {}

 private:
  Topology topology_;
  ProcessId self_;
  Rng rng_{1};
  std::uint32_t timers_ = 0;
};

// ns per application delivery through `process` (started once) on
// captured messages arriving on p0 -> p1.
double delivery_ns(const Capture& capture, Process& process) {
  LedgerContext ctx(Topology::ring(capture.ring_size).with_debugger(),
                    ProcessId(1));
  ChannelId in;
  for (const ChannelId c : ctx.topology().in_channels(ProcessId(1))) {
    if (!ctx.topology().channel(c).is_control) in = c;
  }
  process.on_start(ctx);
  std::vector<Message> batch;
  return ns_per_op(
      capture.messages.size(), [&] { batch = capture.messages; },
      [&] {
        for (Message& m : batch) process.on_message(ctx, in, std::move(m));
      });
}

// The events the forwarders' handlers generate, when no trace sink
// captured real ones: receive, hops state change, send.
std::vector<LocalEvent> synthesize_events(const Capture& capture) {
  std::vector<LocalEvent> events;
  std::int64_t hops = 0;
  for (const Message& m : capture.messages) {
    LocalEvent recv;
    recv.kind = LocalEventKind::kMessageReceived;
    recv.process = ProcessId(1);
    recv.value = static_cast<std::int64_t>(m.payload.size());
    recv.message_id = m.message_id;
    events.push_back(recv);
    LocalEvent change;
    change.kind = LocalEventKind::kStateChange;
    change.process = ProcessId(1);
    change.name = "hops";
    change.value = ++hops;
    events.push_back(change);
    LocalEvent send = recv;
    send.kind = LocalEventKind::kMessageSent;
    events.push_back(send);
  }
  return events;
}

}  // namespace

void run_ledger(Run& run) {
  RunResult& result = run.result;
  Capture& capture = result.capture;
  auto& layer = result.layer;
  if (capture.messages.empty()) {
    result.violation("ledger: no application messages were captured");
    return;
  }
  const std::vector<Message>& messages = capture.messages;
  const std::size_t n = messages.size();

  // ---- net: Message encode/decode, framing --------------------------------
  Bytes scratch;
  layer["net.msg_encode_ns"] = ns_per_op(n, [&](std::size_t i) {
    scratch.clear();
    ByteWriter writer(scratch);
    messages[i].encode(writer);
    g_sink = g_sink + scratch.size();
  });
  std::vector<Bytes> encoded;
  Bytes stream;
  for (const Message& m : messages) {
    ByteWriter writer;
    m.encode(writer);
    encoded.push_back(std::move(writer).take());
    const std::size_t header = begin_frame(stream);
    ByteWriter framed(stream);
    m.encode(framed);
    end_frame(stream, header);
  }
  layer["net.msg_decode_ns"] = ns_per_op(n, [&](std::size_t i) {
    ByteReader reader(encoded[i]);
    auto decoded = Message::decode(reader);
    g_sink = g_sink + decoded.value().payload.size();
  });
  layer["net.frame_parse_ns"] = ns_per_op(
      n, [] {},
      [&] {
        FrameParser parser;
        // Feed the stream in socket-read-sized chunks.
        constexpr std::size_t kChunk = 64 * 1024;
        for (std::size_t at = 0; at < stream.size(); at += kChunk) {
          const std::size_t len = std::min(kChunk, stream.size() - at);
          parser.append(std::span<const std::uint8_t>(stream.data() + at, len));
          while (auto frame = parser.next()) g_sink = g_sink + frame->size();
        }
      });

  // ---- net/reliable: sender stage (acked every 64) and receiver -----------
  std::vector<Message> batch;
  const auto refill = [&] { batch = messages; };
  layer["net.reliable_stage_ns"] = ns_per_op(n, refill, [&] {
    ReliableSender sender;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t seq = sender.stage(std::move(batch[i]), i, TimePoint{});
      if (seq % 64 == 0) sender.ack(seq);
    }
    g_sink = g_sink + sender.unacked();
  });
  layer["net.reliable_on_frame_ns"] = ns_per_op(n, refill, [&] {
    ReliableReceiver receiver;
    std::vector<ReliableReceiver::Delivery> out;
    for (std::size_t i = 0; i < n; ++i) {
      receiver.on_frame(i + 1, std::move(batch[i]), i, out);
      out.clear();
    }
    g_sink = g_sink + receiver.cum_ack();
  });

  // ---- common: buffer pool lease -------------------------------------------
  BufferPool pool;
  layer["common.pool_lease_ns"] = ns_per_op(n, [&](std::size_t i) {
    BufferPool::Lease lease = pool.acquire();
    lease.bytes().resize(encoded[i].size());
    g_sink = g_sink + lease.bytes().size();
  });

  // ---- clock at n = 64 ------------------------------------------------------
  const std::vector<VectorClock> clocks = clocks_at_64(capture, run.options.seed);
  const std::size_t c = clocks.size();
  VectorClock merged(64);
  layer["clock.vc_merge_ns"] = ns_per_op(c, [&](std::size_t i) {
    merged.merge(clocks[i]);
    g_sink = g_sink + merged.size();
  });
  layer["clock.vc_compare_ns"] = ns_per_op(c, [&](std::size_t i) {
    g_sink = g_sink +
             static_cast<std::uint64_t>(clocks[i].compare(clocks[(i + 1) % c]));
  });
  layer["clock.vc_encode_ns"] = ns_per_op(c, [&](std::size_t i) {
    scratch.clear();
    ByteWriter writer(scratch);
    clocks[i].encode(writer);
    g_sink = g_sink + scratch.size();
  });

  // ---- core: predicate matching, S_h encoding ------------------------------
  const std::vector<LocalEvent> events =
      capture.events.empty() ? synthesize_events(capture) : capture.events;
  auto spec = parse_breakpoint(capture.breakpoint);
  if (!spec.ok() || spec.value().linked.empty()) {
    result.violation("ledger: breakpoint '" + capture.breakpoint +
                     "' does not parse to a linked predicate");
    return;
  }
  const DisjunctivePredicate& dp = spec.value().linked.first();
  layer["core.predicate_match_ns"] = ns_per_op(events.size(), [&](std::size_t i) {
    g_sink = g_sink + (dp.matches(events[i]) ? 1 : 0);
  });
  if (capture.state) {
    std::vector<double> ms;
    std::size_t bytes = 0;
    for (int t = 0; t < kTrials; ++t) {
      const double t0 = wall_s();
      bytes = capture.state->encode_snapshots().size();
      ms.push_back((wall_s() - t0) * 1e3);
    }
    layer["core.global_state_encode_ms"] = median(ms);
    layer["core.global_state_bytes_per_wave"] = static_cast<double>(bytes);
  }

  // ---- core: one delivery through the shim vs. to the bare forwarder ------
  {
    ForwarderConfig fcfg;
    fcfg.tokens_per_process = 1;
    TokenForwarder bare(fcfg, std::make_shared<ForwarderProbe>());
    layer["workload.handler_ns"] = delivery_ns(capture, bare);
    DebugShim::Options options;
    options.stamp_vector_clocks = capture.vector_clocks;
    if (capture.trace_sink) {
      options.trace_sink = [](const LocalEvent& event) {
        g_sink = g_sink + event.local_seq;
      };
    }
    DebugShim shim(ProcessId(1),
                   std::make_unique<TokenForwarder>(
                       fcfg, std::make_shared<ForwarderProbe>()),
                   std::move(options));
    layer["core.shim_delivery_ns"] =
        delivery_ns(capture, shim) - layer["workload.handler_ns"];
  }

  // ---- replay: one recorder append (payload hash included) ----------------
  ReplayLogHeader header;
  header.substrate = "threads";
  std::unique_ptr<ReplayRecorder> recorder;
  layer["replay.record_delivery_ns"] = ns_per_op(
      n, [&] { recorder = std::make_unique<ReplayRecorder>(header); },
      [&] {
        for (std::size_t i = 0; i < n; ++i) {
          const Bytes& payload = messages[i].payload;
          recorder->record_delivery(ProcessId(1), ChannelId(0), i,
                                    replay_payload_hash(payload),
                                    payload.size());
        }
      });

  // ---- the decomposition row -----------------------------------------------
  const LedgerOps& ops = result.ops;
  const struct {
    const char* name;
    double per_msg;
    double ns;
  } rows[] = {
      {"msg_encode", ops.msg_encode, layer["net.msg_encode_ns"]},
      {"msg_decode", ops.msg_decode, layer["net.msg_decode_ns"]},
      {"frame_parse", ops.frame_parse, layer["net.frame_parse_ns"]},
      {"pool_lease", ops.pool_lease, layer["common.pool_lease_ns"]},
      {"handler", 1.0, layer["workload.handler_ns"]},
      {"shim", 1.0, layer["core.shim_delivery_ns"]},
      {"predicate_match", ops.predicate_match, layer["core.predicate_match_ns"]},
      {"reliable_stage", ops.reliable_stage, layer["net.reliable_stage_ns"]},
      {"reliable_on_frame", ops.reliable_on_frame,
       layer["net.reliable_on_frame_ns"]},
      {"record_delivery", ops.record_delivery,
       layer["replay.record_delivery_ns"]},
  };
  const double measured = result.window_msgs > 0
                              ? result.window_cpu_s * 1e9 / result.window_msgs
                              : 0.0;
  double explained = 0;
  std::string row;
  for (const auto& r : rows) {
    if (r.per_msg == 0) continue;
    explained += r.per_msg * r.ns;
    char part[96];
    std::snprintf(part, sizeof part, " + %s %.1fns x %.3f", r.name, r.ns,
                  r.per_msg);
    row += part;
  }
  layer["ledger.ns_per_app_msg"] = measured;
  layer["ledger.unexplained_ns_per_msg"] = measured - explained;
  std::printf("ledger %s: measured %.1f CPU ns/app msg =%s + unexplained %.1f"
              " (explained %.1f%%)\n",
              run.options.workload.c_str(), measured,
              row.empty() ? "" : row.c_str() + 2, measured - explained,
              measured > 0 ? 100.0 * explained / measured : 0.0);
}

}  // namespace perfbench
