#include "debugger/tier.hpp"

#include <utility>

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace ddbg {

WaveKind marker_kind(const Message& marker) {
  return marker.kind == MessageKind::kHaltMarker ? WaveKind::kHalt
                                                 : WaveKind::kSnapshot;
}

std::uint64_t marker_wave(const Message& marker) {
  if (marker.kind == MessageKind::kHaltMarker) {
    DDBG_ASSERT(marker.halt.has_value(), "halt marker without data");
    return marker.halt->halt_id.value();
  }
  DDBG_ASSERT(marker.snapshot.has_value(), "snapshot marker w/o data");
  return marker.snapshot->snapshot_id;
}

WaveKind report_kind(const Command& report) {
  return report.kind == CommandKind::kHaltReport ||
                 report.kind == CommandKind::kAggregatedHaltReport
             ? WaveKind::kHalt
             : WaveKind::kSnapshot;
}

Message relay_marker(const Message& marker, ProcessId self) {
  if (marker_kind(marker) == WaveKind::kSnapshot) {
    return Message::snapshot_marker(marker_wave(marker));
  }
  std::vector<ProcessId> path = marker.halt->halt_path;
  path.push_back(self);
  return Message::halt_marker(marker.halt->halt_id, std::move(path));
}

void TierChildren::bind(ProcessContext& ctx) {
  topology_ = &ctx.topology();
  const auto children = topology_->tier_children(ctx.self());
  children_.assign(children.begin(), children.end());
  if (obs::MetricsRegistry* m = ctx.metrics()) {
    m->observe_tree_fanout(children_.size());
  }
}

ProcessId TierChildren::route(ProcessId target) const {
  for (const ProcessId child : children_) {
    const auto [lo, hi] = topology_->tier_user_range(child);
    if (target.value() >= lo && target.value() < hi) return child;
  }
  DDBG_ASSERT(false, "control target outside every tier child's subtree");
  return ProcessId();
}

void TierChildren::unicast(ProcessContext& ctx, ProcessId target, Bytes inner,
                           Bytes envelope) const {
  const ProcessId child = route(target);
  if (child == target) {
    ctx.send(topology_->control_to(child), Message::control(std::move(inner)));
    return;
  }
  // The aggregators route the envelope down to the leaf that owns `target`.
  if (envelope.empty()) {
    envelope = Command::tier_unicast(target, std::move(inner)).encode();
  }
  ctx.send(topology_->control_to(child), Message::control(std::move(envelope)));
}

void TierChildren::broadcast(ProcessContext& ctx, const Bytes& inner,
                             Bytes envelope) const {
  for (const ProcessId child : children_) {
    if (!topology_->is_aggregator(child)) {
      ctx.send(topology_->control_to(child), Message::control(inner));
      continue;
    }
    if (envelope.empty()) envelope = Command::tier_broadcast(inner).encode();
    ctx.send(topology_->control_to(child), Message::control(envelope));
  }
}

std::size_t TierChildren::forward_marker(ProcessContext& ctx, ProcessId origin,
                                         const Message& marker) const {
  std::size_t sent = 0;
  for (const ProcessId child : children_) {
    // A *user* child always gets the marker, even the originator: it needs
    // one on its control in-channel to close that channel's recorded state
    // (Lemma 2.2).
    if (child == origin && topology_->is_aggregator(child)) {
      if (obs::MetricsRegistry* m = ctx.metrics()) m->on_marker_suppressed();
      continue;
    }
    ctx.send(topology_->control_to(child), marker);
    ++sent;
  }
  return sent;
}

}  // namespace ddbg
