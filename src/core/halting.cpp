#include "core/halting.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace ddbg {

HaltingEngine::HaltingEngine(ProcessId self, const Topology* topology,
                             Callbacks callbacks, bool suppress_control_echo)
    : self_(self),
      topology_(topology),
      callbacks_(std::move(callbacks)),
      suppress_control_echo_(suppress_control_echo) {
  DDBG_ASSERT(topology_ != nullptr, "HaltingEngine needs a topology");
  DDBG_ASSERT(callbacks_.capture_state != nullptr,
              "HaltingEngine needs a capture_state callback");
  const std::size_t in_degree = topology_->in_channels(self_).size();
  slot_done_.assign(in_degree, 0);
  slot_record_.assign(in_degree, kNoRecord);
}

bool HaltingEngine::is_app_channel(ChannelId c) const {
  return !topology_->channel(c).is_control;
}

std::uint32_t HaltingEngine::slot_of(ChannelId in) const {
  DDBG_ASSERT(topology_->channel(in).destination == self_,
              "halting engine offered a channel that is not incoming");
  return topology_->in_slot(in);
}

void HaltingEngine::clear_wave_slots() {
  std::fill(slot_done_.begin(), slot_done_.end(), 0);
  std::fill(slot_record_.begin(), slot_record_.end(), kNoRecord);
  done_count_ = 0;
}

void HaltingEngine::mark_done(ChannelId in) {
  std::uint8_t& done = slot_done_[slot_of(in)];
  if (done != 0) return;
  done = 1;
  ++done_count_;
}

void HaltingEngine::record_channel_message(ChannelId in,
                                           const Bytes& payload) {
  std::uint32_t& record = slot_record_[slot_of(in)];
  if (record == kNoRecord) {
    record = static_cast<std::uint32_t>(snapshot_.in_channels.size());
    snapshot_.in_channels.push_back(ChannelState{in, {}});
  }
  snapshot_.in_channels[record].messages.push_back(payload);
}

void HaltingEngine::initiate(ProcessContext& ctx) {
  if (halted_) return;  // a process can halt only once per wave
  // Marker-Sending Rule: increment last_halt_id, then Halt Routine.
  ++last_halt_id_;
  snapshot_ = callbacks_.capture_state();
  snapshot_.halt_path.clear();  // spontaneous: nobody halted before us
  halt_routine(ctx, /*from_control=*/false);
}

void HaltingEngine::on_halt_marker(ProcessContext& ctx, ChannelId in,
                                   const HaltMarkerData& data) {
  const bool from_control = !is_app_channel(in);
  if (data.halt_id.value() > last_halt_id_) {
    // New wave: adopt its id and halt.
    last_halt_id_ = data.halt_id.value();
    if (halted_) {
      // Overlapping waves: a second initiator raced the first.  We are
      // already halted, so the Halt Routine must not run again (it would
      // re-enter the halted state illegally); adopt the newer wave in
      // place instead.
      adopt_wave(ctx, data, from_control);
    } else {
      snapshot_ = callbacks_.capture_state();
      snapshot_.halt_path = data.halt_path;
      halt_routine(ctx, from_control);
    }
    // The channel the first marker arrived on is empty (the sender halted
    // immediately after sending it): mark it done with no recorded messages.
    mark_done(in);
    check_complete();
    return;
  }
  if (halted_ && data.halt_id.value() == last_halt_id_) {
    // Another marker of the current wave: this channel's state is complete.
    mark_done(in);
    check_complete();
    return;
  }
  // Marker for an older wave (or for the current id while running, which
  // cannot happen with per-wave ids): ignore, per the Marker-Receiving Rule.
}

void HaltingEngine::adopt_wave(ProcessContext& ctx,
                               const HaltMarkerData& data, bool from_control) {
  // Already halted when a newer wave's marker arrives.  The process state
  // is unchanged — it was captured when we halted and nothing has run
  // since — so it stands for the new wave too; only the wave bookkeeping
  // restarts.  Everything buffered while halted is still logically in its
  // channel, so it seeds the new wave's channel-state records (Lemma 2.2:
  // those messages arrive before the new wave's markers).
  completion_reported_ = false;
  clear_wave_slots();
  snapshot_.halt_path = data.halt_path;
  snapshot_.captured_at = ctx.now();
  snapshot_.in_channels.clear();
  for (const auto& [channel, message] : buffered_) {
    if (message.kind != MessageKind::kApplication) continue;
    if (!is_app_channel(channel)) continue;
    record_channel_message(channel, message.payload);
  }
  // Forward the new wave's markers exactly as the Halt Routine would,
  // extending the halt path with our own name (section 2.2.4).
  forward_markers(ctx, data.halt_path, from_control);
  if (callbacks_.on_halt) {
    callbacks_.on_halt(HaltId(last_halt_id_), snapshot_.halt_path);
  }
}

void HaltingEngine::halt_routine(ProcessContext& ctx, bool from_control) {
  DDBG_ASSERT(!halted_, "halt routine entered twice");
  halted_ = true;
  completion_reported_ = false;
  clear_wave_slots();
  buffered_.clear();
  buffered_timers_.clear();

  snapshot_.captured_at = ctx.now();

  // Channel-state records are created lazily on the first recorded payload
  // (sparse: an empty channel never materializes an entry).
  snapshot_.in_channels.clear();

  // Forward markers on every outgoing channel, appending our own name to
  // the halt path (section 2.2.4), then halt.
  forward_markers(ctx, snapshot_.halt_path, from_control);

  if (callbacks_.on_halt) {
    callbacks_.on_halt(HaltId(last_halt_id_), snapshot_.halt_path);
  }
  check_complete();  // a process with no incoming app/control channels
}

void HaltingEngine::forward_markers(ProcessContext& ctx,
                                    const std::vector<ProcessId>& base_path,
                                    bool from_control) {
  std::vector<ProcessId> path = base_path;
  path.push_back(self_);
  for (const ChannelId c : topology_->out_channels(self_)) {
    // Markers on application channels are load-bearing (the receiver closes
    // that channel's state on them); only the echo back to the debugger
    // tier is redundant, and only when the tier told us about the wave.
    if (suppress_control_echo_ && from_control && !is_app_channel(c)) {
      if (obs::MetricsRegistry* m = ctx.metrics()) m->on_marker_suppressed();
      continue;
    }
    ctx.send(c, Message::halt_marker(HaltId(last_halt_id_), path));
  }
}

void HaltingEngine::check_complete() {
  if (completion_reported_ || !complete()) return;
  completion_reported_ = true;
  if (callbacks_.on_complete) callbacks_.on_complete(snapshot_);
}

bool HaltingEngine::intercept_message(ChannelId in, const Message& message) {
  if (!halted_) return false;
  DDBG_ASSERT(message.kind != MessageKind::kControl,
              "control messages must bypass the halting engine");
  // Everything that arrives while halted stays logically in the channel and
  // is replayed on resume.
  buffered_.emplace_back(in, message);
  // Application messages arriving before this channel's marker are part of
  // the channel's recorded state (Lemma 2.2).
  if (message.kind == MessageKind::kApplication &&
      slot_done_[slot_of(in)] == 0 && is_app_channel(in)) {
    record_channel_message(in, message.payload);
  }
  return true;
}

bool HaltingEngine::intercept_timer(TimerId timer) {
  if (!halted_) return false;
  buffered_timers_.push_back(timer);
  return true;
}

HaltingEngine::ResumeData HaltingEngine::resume() {
  DDBG_ASSERT(halted_, "resume() while running");
  ResumeData data;
  data.messages = std::move(buffered_);
  data.timers = std::move(buffered_timers_);
  buffered_.clear();
  buffered_timers_.clear();
  halted_ = false;
  completion_reported_ = false;
  snapshot_ = ProcessSnapshot{};
  return data;
}

const ProcessSnapshot& HaltingEngine::snapshot() const {
  DDBG_ASSERT(halted_, "snapshot() while running");
  return snapshot_;
}

}  // namespace ddbg
