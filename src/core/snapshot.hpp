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

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.hpp"
#include "core/global_state.hpp"
#include "net/process.hpp"

namespace ddbg {

class SnapshotEngine {
 public:
  struct Callbacks {
    // Capture the application state at the recording instant.
    std::function<ProcessSnapshot()> capture_state;
    // All incoming channel states recorded: local contribution to S_r done.
    std::function<void(const ProcessSnapshot&)> on_complete;
  };

  // `suppress_control_echo`: as in HaltingEngine — when a wave was learned
  // from a control channel, skip the redundant marker echo back onto
  // control out-channels (never onto application channels).
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
  [[nodiscard]] bool is_app_channel(ChannelId c) const;

  ProcessId self_;
  const Topology* topology_;
  Callbacks callbacks_;
  bool suppress_control_echo_ = true;

  std::uint64_t last_snapshot_id_ = 0;
  bool recording_ = false;

  ProcessSnapshot snapshot_;
  std::unordered_set<ChannelId> channels_done_;
  // Sparse index into snapshot_.in_channels, created on a channel's first
  // recorded payload.
  std::unordered_map<std::uint32_t, std::size_t> channel_slot_;
};

}  // namespace ddbg
