// The Halting Algorithm (section 2.2 of the paper), per-process engine.
//
//   Marker-Sending Rule for a process p:
//     Increment last_halt_id; Halt Routine(p)
//   Marker-Receiving Rule for a process q, on a halt marker along c:
//     if halt_id > last_halt_id: update last_halt_id; Halt Routine(q)
//     else ignore
//   Halt Routine(x):
//     for each outgoing channel c: send halt marker (halt_id=last_halt_id);
//     Halt.
//
// Section 2.2.4's extension is included: each process appends its name to
// the marker's halt_path before forwarding, so a received marker describes
// which processes already halted.
//
// Beyond the paper's pseudocode, a practical debugger needs to know *when
// the halted global state is complete* and how to *resume*.  Both fall out
// of Lemma 2.2: after q halts, the in-flight contents of an incoming
// channel are exactly the messages that arrive before that channel's halt
// marker.  The engine therefore buffers post-halt arrivals, closes each
// channel's state when its marker arrives, reports completion once every
// incoming channel is closed, and on resume replays the buffered messages
// in arrival order (they were "in the channel").
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "core/global_state.hpp"
#include "core/snapshot.hpp"
#include "net/process.hpp"

namespace ddbg {

class HaltingEngine {
 public:
  struct Callbacks {
    // Capture the application state at the instant of halting (Lemma 2.1:
    // this is the state the C&L algorithm would have recorded).
    std::function<ProcessSnapshot()> capture_state;
    // The process just halted (before channel states are complete).
    std::function<void(HaltId, const std::vector<ProcessId>& halt_path)>
        on_halt;
    // All incoming channels delivered their markers: the local contribution
    // to S_h is complete.
    std::function<void(const ProcessSnapshot&)> on_complete;
  };

  // `suppress_control_echo`: see ChannelRecorder.
  HaltingEngine(ProcessId self, const Topology* topology, Callbacks callbacks,
                bool suppress_control_echo = true);

  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] std::uint64_t last_halt_id() const { return last_halt_id_; }
  [[nodiscard]] HaltId current_wave() const {
    return halted_ ? HaltId(last_halt_id_) : HaltId();
  }
  // Every incoming channel's marker for the current wave has arrived.  O(1).
  [[nodiscard]] bool complete() const {
    return halted_ && channels_.complete();
  }

  // Spontaneous halting (Marker-Sending Rule).  No-op if already halted.
  void initiate(ProcessContext& ctx);

  // Marker-Receiving Rule.  `path` is the marker's accumulated halt path.
  void on_halt_marker(ProcessContext& ctx, ChannelId in,
                      const HaltMarkerData& data);

  // Offer a non-control, non-halt-marker message that arrived while this
  // process may be halted.  Returns true if the engine consumed (buffered)
  // it; false if the process is running and the message should be handled
  // normally.
  [[nodiscard]] bool intercept_message(ChannelId in, const Message& message);

  // Same for timer firings: buffered while halted, replayed on resume.
  [[nodiscard]] bool intercept_timer(TimerId timer);

  struct ResumeData {
    // Buffered (channel, message) pairs in arrival order.  Includes the
    // pending channel-state messages and anything that arrived after a
    // channel's marker (e.g. a halt marker for a *later* wave).
    std::vector<std::pair<ChannelId, Message>> messages;
    std::vector<TimerId> timers;
  };

  // Leave the halted state.  The caller (debug shim) must re-dispatch the
  // returned messages through its normal receive path, in order.
  [[nodiscard]] ResumeData resume();

  // Read access for the debugger/tests while halted.
  [[nodiscard]] const ProcessSnapshot& snapshot() const;

 private:
  // The Halt Routine for a marker carrying `halt_path` (empty when
  // spontaneous), learned from a control channel if `from_control`.
  void halt_routine(ProcessContext& ctx,
                    const std::vector<ProcessId>& halt_path,
                    bool from_control);
  void check_complete();

  ProcessId self_;
  Callbacks callbacks_;

  std::uint64_t last_halt_id_ = 0;  // initially zero, per the paper
  bool halted_ = false;
  bool completion_reported_ = false;

  // While halted: the snapshot under assembly (state captured at halt,
  // channel states appended as messages arrive).
  ProcessSnapshot snapshot_;
  ChannelRecorder channels_;

  std::vector<std::pair<ChannelId, Message>> buffered_;
  std::vector<TimerId> buffered_timers_;
};

}  // namespace ddbg
