#include "debugger/aggregator.hpp"

#include <utility>

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace ddbg {

void AggregatorProcess::on_start(ProcessContext& ctx) {
  const Topology& topology = ctx.topology();
  self_ = ctx.self();
  DDBG_ASSERT(topology.is_aggregator(self_),
              "AggregatorProcess must occupy an aggregator slot");
  parent_ = topology.tier_parent(self_);
  up_channel_ = topology.control_from(self_);
  children_.bind(ctx);
  const auto [lo, hi] = topology.tier_user_range(self_);
  subtree_users_ = hi - lo;
}

void AggregatorProcess::on_message(ProcessContext& ctx, ChannelId in,
                                   Message message) {
  switch (message.kind) {
    case MessageKind::kHaltMarker:
    case MessageKind::kSnapshotMarker:
      handle_marker(ctx, in, message);
      return;
    case MessageKind::kControl: {
      auto command = Command::decode(message.payload);
      if (!command.ok()) {
        DDBG_ERROR() << "aggregator " << self_.value()
                     << ": bad control message: "
                     << command.error().to_string();
        return;
      }
      handle_command(ctx, message, std::move(command).value());
      return;
    }
    default:
      DDBG_WARN() << "aggregator " << self_.value() << ": unexpected "
                  << to_string(message.kind);
  }
}

void AggregatorProcess::handle_marker(ProcessContext& ctx, ChannelId in,
                                      const Message& marker) {
  std::uint64_t& last = last_wave_[marker_kind(marker)];
  const std::uint64_t wave = marker_wave(marker);
  if (wave <= last) return;  // known wave: ignore
  last = wave;
  // Forward with our own name appended to the halt path, exactly as the
  // root does — aggregators never really halt.
  const Message relay = relay_marker(marker, self_);
  const ProcessId origin = ctx.topology().channel(in).source;
  // Upward, unless the wave just came down from the parent: the parent
  // demonstrably knows the wave already, so the echo is pure duplicate.
  if (origin == parent_) {
    if (obs::MetricsRegistry* m = ctx.metrics()) m->on_marker_suppressed();
  } else {
    ctx.send(up_channel_, relay);
  }
  children_.forward_marker(ctx, origin, relay);
}

void AggregatorProcess::merge_report(ProcessContext& ctx, Command&& command) {
  const WaveKind kind = report_kind(command);
  const std::uint64_t wave = command.wave_id;
  auto [it, inserted] = frags_[kind].try_emplace(wave);
  Fragment& frag = it->second;
  if (inserted) frag.state = GlobalState(HaltId(wave));
  // A user child's own snapshot, or a child aggregator's pre-merged
  // fragment: move, never copy.
  for_each_report(command, [&frag](ProcessSnapshot& snapshot) {
    frag.state.add(std::move(snapshot));
  });
  if (frag.forwarded || frag.state.size() != subtree_users_) return;
  frag.forwarded = true;
  const Command up =
      kind == WaveKind::kHalt
          ? Command::aggregated_halt_report(self_, wave, frag.state.take_all())
          : Command::aggregated_snapshot_report(self_, wave,
                                                frag.state.take_all());
  ctx.send(up_channel_, Message::control(up.encode()));
  if (obs::MetricsRegistry* m = ctx.metrics()) m->on_ack_aggregated();
}

void AggregatorProcess::handle_command(ProcessContext& ctx, Message& message,
                                       Command command) {
  switch (command.kind) {
    case CommandKind::kHaltReport:
    case CommandKind::kAggregatedHaltReport:
    case CommandKind::kSnapshotReport:
    case CommandKind::kAggregatedSnapshotReport:
      merge_report(ctx, std::move(command));
      return;
    case CommandKind::kBreakpointHit:
    case CommandKind::kNotifySatisfied:
    case CommandKind::kRouteMarker:
    case CommandKind::kStateReport:
      // Upward relay: already encoded, forward the payload untouched.
      ctx.send(up_channel_, Message::control(std::move(message.payload)));
      return;
    case CommandKind::kTierBroadcast:
      children_.broadcast(ctx, command.inner, std::move(message.payload));
      return;
    case CommandKind::kTierUnicast:
      children_.unicast(ctx, command.target, std::move(command.inner),
                        std::move(message.payload));
      return;
    default:
      DDBG_WARN() << "aggregator " << self_.value() << ": unexpected command "
                  << to_string(command.kind);
  }
}

}  // namespace ddbg
