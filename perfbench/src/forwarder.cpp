#include "forwarder.hpp"

#include <string>

#include "bench.hpp"
#include "common/serialization.hpp"

namespace perfbench {

using namespace ddbg;

void TokenForwarder::on_start(ProcessContext& ctx) {
  for (const ChannelId c : ctx.topology().out_channels(ctx.self())) {
    if (!ctx.topology().channel(c).is_control) out_.push_back(c);
  }
  for (std::uint32_t i = 0; i < config_.tokens_per_process; ++i) {
    ByteWriter writer;
    writer.u64(mix(config_.seed,
                   (std::uint64_t{ctx.self().value()} << 32) | i));
    forward(ctx, std::move(writer).take());
  }
}

void TokenForwarder::on_message(ProcessContext& ctx, ChannelId /*in*/,
                                Message message) {
  ++received_;
  probe_->received.store(received_, std::memory_order_relaxed);
  debug().set_var("hops", static_cast<std::int64_t>(received_));
  if (static_cast<std::int64_t>(received_) ==
      probe_->watch_target.load(std::memory_order_relaxed)) {
    probe_->watch_reached_ns.store(ctx.now().ns, std::memory_order_release);
  }
  if (probe_->capture.load(std::memory_order_relaxed) &&
      probe_->captured.size() < probe_->capture_limit) {
    probe_->captured.push_back(message);
  }
  forward(ctx, std::move(message.payload));
}

void TokenForwarder::forward(ProcessContext& ctx, Bytes payload) {
  const ChannelId out = out_[next_out_];
  next_out_ = (next_out_ + 1) % out_.size();
  ++sent_;
  ctx.send(out, Message::application(std::move(payload)));
}

Bytes TokenForwarder::snapshot_state() const {
  ByteWriter writer;
  writer.u64(sent_);
  writer.u64(received_);
  return std::move(writer).take();
}

std::string TokenForwarder::describe_state() const {
  return "sent=" + std::to_string(sent_) +
         " received=" + std::to_string(received_);
}

bool decode_counts(const Bytes& state, ForwarderCounts& counts) {
  ByteReader reader(state);
  auto sent = reader.u64();
  auto received = reader.u64();
  if (!sent.ok() || !received.ok()) return false;
  counts.sent = sent.value();
  counts.received = received.value();
  return true;
}

std::vector<ProcessPtr> make_forwarders(std::uint32_t n,
                                        ForwarderConfig config,
                                        Probes* probes) {
  std::vector<ProcessPtr> users;
  users.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    auto probe = std::make_shared<ForwarderProbe>();
    if (probes != nullptr) probes->push_back(probe);
    users.push_back(std::make_unique<TokenForwarder>(config, std::move(probe)));
  }
  return users;
}

double total_received(const Probes& probes) {
  double total = 0;
  for (const auto& probe : probes) {
    total += static_cast<double>(
        probe->received.load(std::memory_order_relaxed));
  }
  return total;
}

void set_capture(Probes& probes, bool on, std::size_t per_probe) {
  for (auto& probe : probes) {
    if (on) probe->capture_limit = per_probe;
    probe->capture.store(on, std::memory_order_relaxed);
  }
}

void collect_captured(Probes& probes, std::vector<Message>& out) {
  for (auto& probe : probes) {
    for (Message& m : probe->captured) out.push_back(std::move(m));
    probe->captured.clear();
  }
}

}  // namespace perfbench
