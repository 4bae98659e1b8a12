// Chandy & Lamport's global-state recording algorithm (section 2.1 of the
// paper; originally C&L 1985), per-process engine.
//
//   Marker-Sending Rule for p: after p records its state, send one marker on
//   every outgoing channel before any further message.
//   Marker-Receiving Rule for q, marker on channel c:
//     if q has not recorded its state: record it; state(c) := empty
//     else: state(c) := messages received on c after recording, before the
//           marker.
//
// Unlike the Halting Algorithm, the process *continues executing* while the
// recording assembles — this is the "monitor-only" approach of section 4,
// and the baseline against which Theorem 2 equivalence (experiment E1) is
// checked.  Waves are numbered (snapshot_id) the same way halting waves
// are, so repeated recordings can be taken in one run.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.hpp"
#include "core/global_state.hpp"
#include "net/process.hpp"

namespace ddbg {

// Per-in-channel bookkeeping of one marker wave, shared by C&L recording
// (SnapshotEngine) and the Halting Algorithm built on it (HaltingEngine;
// Lemma 2.1: halting records the state C&L would record).
//
// For each in-channel, by its dense Topology::in_slot: whether the wave's
// marker has arrived on it, which closes the channel's recorded state
// (Lemma 2.2), and the index of its record in the snapshot's in_channels.
// A record is created on the channel's first recorded payload, so
// in_channels keeps first-recorded order and holds only channels that had
// messages in flight.
class ChannelRecorder {
 public:
  // `suppress_control_echo`: when a wave was learned from a control channel
  // (i.e. from the debugger tier), send_markers skips the echo back onto
  // control out-channels — the tier already knows the wave.  Markers on
  // application channels are never suppressed: the out-channel p->q is q's
  // in-channel, and q needs that marker to close its channel state (Lemma
  // 2.2).  False reproduces the original flood behaviour for equivalence
  // tests.
  ChannelRecorder(ProcessId self, const Topology* topology,
                  bool suppress_control_echo);

  [[nodiscard]] bool is_control(ChannelId c) const {
    return topology_->channel(c).is_control;
  }
  // Every in-channel's marker for the current wave has arrived.  O(1).
  [[nodiscard]] bool complete() const { return done_count_ == done_.size(); }

  // Start a wave recorded into `snapshot`: no channel closed, no channel
  // state recorded.
  void clear(ProcessSnapshot& snapshot);
  // Close `in`'s channel state for the current wave (idempotent).
  void mark_done(ChannelId in);
  // Append `message` to `in`'s channel state in `snapshot` if it is an
  // application message on an application channel whose marker has not
  // arrived; otherwise do nothing.
  void record(ProcessSnapshot& snapshot, ChannelId in, const Message& message);
  // Send `marker` on every outgoing channel, minus the suppressed control
  // echoes of a wave learned from the control channel (`from_control`).
  void send_markers(ProcessContext& ctx, const Message& marker,
                    bool from_control) const;

 private:
  // Dense slot of in-channel `in`; asserts `in` ends at this process.
  [[nodiscard]] std::uint32_t slot_of(ChannelId in) const;

  static constexpr std::uint32_t kNoRecord = UINT32_MAX;

  ProcessId self_;
  const Topology* topology_;
  bool suppress_control_echo_;
  std::vector<std::uint8_t> done_;
  std::vector<std::uint32_t> record_;
  std::size_t done_count_ = 0;
};

class SnapshotEngine {
 public:
  struct Callbacks {
    // Capture the application state at the recording instant.
    std::function<ProcessSnapshot()> capture_state;
    // All incoming channel states recorded: local contribution to S_r done.
    std::function<void(const ProcessSnapshot&)> on_complete;
  };

  // `suppress_control_echo`: see ChannelRecorder.
  SnapshotEngine(ProcessId self, const Topology* topology,
                 Callbacks callbacks, bool suppress_control_echo = true);

  [[nodiscard]] bool recording() const { return recording_; }
  [[nodiscard]] std::uint64_t last_snapshot_id() const {
    return last_snapshot_id_;
  }

  // Spontaneously start a recording wave (assigns the next id).
  void initiate(ProcessContext& ctx);

  // Marker-Receiving Rule.
  void on_marker(ProcessContext& ctx, ChannelId in,
                 const SnapshotMarkerData& data);

  // Every application message delivered to the process must also be offered
  // here so in-flight channel state can be recorded.  Never consumes the
  // message (the process keeps running).
  void observe_app_message(ChannelId in, const Message& message);

 private:
  void record_state(ProcessContext& ctx, bool from_control);
  void check_complete();

  Callbacks callbacks_;

  std::uint64_t last_snapshot_id_ = 0;
  bool recording_ = false;

  ProcessSnapshot snapshot_;
  ChannelRecorder channels_;
};

}  // namespace ddbg
