#include "core/halting.hpp"

#include "common/logging.hpp"

namespace ddbg {

HaltingEngine::HaltingEngine(ProcessId self, const Topology* topology,
                             Callbacks callbacks, bool suppress_control_echo)
    : self_(self),
      callbacks_(std::move(callbacks)),
      channels_(self, topology, suppress_control_echo) {
  DDBG_ASSERT(callbacks_.capture_state != nullptr,
              "HaltingEngine needs a capture_state callback");
}

void HaltingEngine::initiate(ProcessContext& ctx) {
  if (halted_) return;  // a process can halt only once per wave
  // Marker-Sending Rule: increment last_halt_id, then Halt Routine.
  // Spontaneous: nobody halted before us.
  ++last_halt_id_;
  halt_routine(ctx, {}, /*from_control=*/false);
}

void HaltingEngine::on_halt_marker(ProcessContext& ctx, ChannelId in,
                                   const HaltMarkerData& data) {
  if (data.halt_id.value() > last_halt_id_) {
    // New wave: adopt its id and halt.
    last_halt_id_ = data.halt_id.value();
    halt_routine(ctx, data.halt_path, channels_.is_control(in));
    // The channel the first marker arrived on is empty (the sender halted
    // immediately after sending it): mark it done with no recorded messages.
    channels_.mark_done(in);
    check_complete();
    return;
  }
  if (halted_ && data.halt_id.value() == last_halt_id_) {
    // Another marker of the current wave: this channel's state is complete.
    channels_.mark_done(in);
    check_complete();
    return;
  }
  // Marker for an older wave (or for the current id while running, which
  // cannot happen with per-wave ids): ignore, per the Marker-Receiving Rule.
}

void HaltingEngine::halt_routine(ProcessContext& ctx,
                                 const std::vector<ProcessId>& halt_path,
                                 bool from_control) {
  // Overlapping waves: when a second initiator raced the first, a newer
  // wave's marker finds the process already halted.  The process state is
  // unchanged — it was captured when we halted and nothing has run since —
  // so it stands for the new wave too; only the wave bookkeeping restarts.
  if (!halted_) {
    snapshot_ = callbacks_.capture_state();
    halted_ = true;
  }
  snapshot_.halt_path = halt_path;
  snapshot_.captured_at = ctx.now();
  completion_reported_ = false;
  channels_.clear(snapshot_);
  // Everything buffered while halted is still logically in its channel, so
  // it seeds the new wave's channel-state records (Lemma 2.2: those
  // messages arrive before the new wave's markers).
  for (const auto& [channel, message] : buffered_) {
    channels_.record(snapshot_, channel, message);
  }

  // Forward markers on every outgoing channel, appending our own name to
  // the halt path (section 2.2.4), then halt.
  std::vector<ProcessId> path = halt_path;
  path.push_back(self_);
  channels_.send_markers(
      ctx, Message::halt_marker(HaltId(last_halt_id_), std::move(path)),
      from_control);

  if (callbacks_.on_halt) {
    callbacks_.on_halt(HaltId(last_halt_id_), snapshot_.halt_path);
  }
  check_complete();  // a process with no incoming app/control channels
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
  channels_.record(snapshot_, in, message);
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
