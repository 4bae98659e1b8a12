#include "core/snapshot.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace ddbg {

ChannelRecorder::ChannelRecorder(ProcessId self, const Topology* topology,
                                 bool suppress_control_echo)
    : self_(self),
      topology_(topology),
      suppress_control_echo_(suppress_control_echo) {
  DDBG_ASSERT(topology_ != nullptr, "ChannelRecorder needs a topology");
  const std::size_t in_degree = topology_->in_channels(self_).size();
  done_.assign(in_degree, 0);
  record_.assign(in_degree, kNoRecord);
}

std::uint32_t ChannelRecorder::slot_of(ChannelId in) const {
  DDBG_ASSERT(topology_->channel(in).destination == self_,
              "channel recorder offered a channel that is not incoming");
  return topology_->in_slot(in);
}

void ChannelRecorder::clear(ProcessSnapshot& snapshot) {
  std::fill(done_.begin(), done_.end(), 0);
  std::fill(record_.begin(), record_.end(), kNoRecord);
  done_count_ = 0;
  snapshot.in_channels.clear();
}

void ChannelRecorder::mark_done(ChannelId in) {
  std::uint8_t& done = done_[slot_of(in)];
  if (done != 0) return;
  done = 1;
  ++done_count_;
}

void ChannelRecorder::record(ProcessSnapshot& snapshot, ChannelId in,
                             const Message& message) {
  if (message.kind != MessageKind::kApplication || is_control(in)) return;
  const std::uint32_t slot = slot_of(in);
  if (done_[slot] != 0) return;
  std::uint32_t& record = record_[slot];
  if (record == kNoRecord) {
    record = static_cast<std::uint32_t>(snapshot.in_channels.size());
    snapshot.in_channels.push_back(ChannelState{in, {}});
  }
  snapshot.in_channels[record].messages.push_back(message.payload);
}

void ChannelRecorder::send_markers(ProcessContext& ctx, const Message& marker,
                                   bool from_control) const {
  for (const ChannelId c : topology_->out_channels(self_)) {
    // Markers on application channels are load-bearing (the receiver closes
    // that channel's state on them); only the echo back to the debugger
    // tier is redundant, and only when the tier told us about the wave.
    if (suppress_control_echo_ && from_control && is_control(c)) {
      if (obs::MetricsRegistry* m = ctx.metrics()) m->on_marker_suppressed();
      continue;
    }
    ctx.send(c, marker);
  }
}

SnapshotEngine::SnapshotEngine(ProcessId self, const Topology* topology,
                               Callbacks callbacks,
                               bool suppress_control_echo)
    : callbacks_(std::move(callbacks)),
      channels_(self, topology, suppress_control_echo) {
  DDBG_ASSERT(callbacks_.capture_state != nullptr,
              "SnapshotEngine needs a capture_state callback");
}

void SnapshotEngine::initiate(ProcessContext& ctx) {
  if (recording_) return;
  ++last_snapshot_id_;
  record_state(ctx, /*from_control=*/false);
  check_complete();
}

void SnapshotEngine::on_marker(ProcessContext& ctx, ChannelId in,
                               const SnapshotMarkerData& data) {
  if (data.snapshot_id > last_snapshot_id_) {
    // First marker of a new wave: record state; this channel is empty.
    last_snapshot_id_ = data.snapshot_id;
    record_state(ctx, /*from_control=*/channels_.is_control(in));
    channels_.mark_done(in);
    check_complete();
    return;
  }
  if (recording_ && data.snapshot_id == last_snapshot_id_) {
    channels_.mark_done(in);
    check_complete();
    return;
  }
  // Stale marker from a completed wave: ignore.
}

void SnapshotEngine::record_state(ProcessContext& ctx, bool from_control) {
  DDBG_ASSERT(!recording_, "record_state entered twice");
  recording_ = true;

  snapshot_ = callbacks_.capture_state();
  snapshot_.halt_path.clear();  // recordings carry no halt path
  snapshot_.captured_at = ctx.now();
  channels_.clear(snapshot_);

  // Marker-Sending Rule: one marker per outgoing channel, before any
  // further message.  (This handler sends them immediately, so nothing can
  // be interleaved.)
  channels_.send_markers(ctx, Message::snapshot_marker(last_snapshot_id_),
                         from_control);
}

void SnapshotEngine::observe_app_message(ChannelId in,
                                         const Message& message) {
  if (recording_) channels_.record(snapshot_, in, message);
}

void SnapshotEngine::check_complete() {
  if (!recording_ || !channels_.complete()) return;
  recording_ = false;
  if (callbacks_.on_complete) callbacks_.on_complete(snapshot_);
}

}  // namespace ddbg
