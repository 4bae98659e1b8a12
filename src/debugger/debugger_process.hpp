// The debugger process `d` of the extended model (section 2.2.3, figure 3).
//
// d is an ordinary process of the computation as far as the marker rules
// are concerned — it receives and forwards halt/snapshot markers on its
// control channels, which is precisely what makes every topology strongly
// connected and lets a halting wave reach processes the application graph
// cannot (figure 2's producer, an infrequently-communicating process) — but
// it "never really halts": it only propagates, collects reports and serves
// the interactive session.
//
// Under Topology::with_debugger_tree() this process is the *root* of a
// debugger tier: markers and control commands fan out over its direct tier
// children (AggregatorProcess nodes) instead of n control channels, and
// subtree reports arrive pre-merged as kAggregated*Report convergecast
// messages.  With a flat with_debugger() topology the children are exactly
// the user processes, so behaviour is unchanged.
//
// All mutable state is guarded by a mutex so an interactive session thread
// (or a test) can read results while the debugger's own thread handles
// messages.  Mutating entry points that send messages must run in process
// context (posted closures or message handlers).
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "core/commands.hpp"
#include "core/global_state.hpp"
#include "core/predicate.hpp"
#include "debugger/tier.hpp"
#include "net/process.hpp"
#include "net/replay_hooks.hpp"

namespace ddbg {

class DebuggerProcess final : public Process {
 public:
  struct BreakpointHit {
    BreakpointId breakpoint;
    ProcessId process;
    std::string description;
    TimePoint when{};
  };

  struct WaveInfo {
    std::uint64_t id = 0;
    bool complete = false;
    TimePoint started_at{};
    TimePoint completed_at{};
    // For a halt wave, each snapshot's halt_path is the section 2.2.4
    // halt-order information: the marker path that process halted on
    // (empty for spontaneous initiators).
    GlobalState state;
  };

  DebuggerProcess() = default;

  // Record every completed halt wave's assembled S_h into a replay log
  // (src/replay).  Called before the run starts; null disables recording.
  void set_replay_sink(ReplaySink* sink) { replay_sink_ = sink; }

  // ---- Process ----
  void on_start(ProcessContext& ctx) override;
  void on_message(ProcessContext& ctx, ChannelId in, Message message) override;
  [[nodiscard]] std::string describe_state() const override {
    return "debugger";
  }

  // ---- commands (must run in process context, e.g. via post()) ----
  // Register a breakpoint and arm it on the involved processes.  Returns
  // the new breakpoint id.
  BreakpointId set_breakpoint(ProcessContext& ctx, const BreakpointSpec& spec);
  // Disarm everywhere.
  void clear_breakpoint(ProcessContext& ctx, BreakpointId bp);
  // Start a halting wave from the debugger (the interactive "stop now").
  std::uint64_t initiate_halt(ProcessContext& ctx);
  // Start a C&L recording wave from the debugger.
  std::uint64_t initiate_snapshot(ProcessContext& ctx);
  // Resume the current halting wave.
  void resume_all(ProcessContext& ctx);
  // Ask one process for a state report (answer arrives asynchronously; see
  // state_report()).
  void query_state(ProcessContext& ctx, ProcessId target);

  // ---- thread-safe observers ----
  [[nodiscard]] std::uint64_t last_halt_id() const;
  [[nodiscard]] bool halt_complete(std::uint64_t wave) const;
  // The latest halt wave completed and has not been resumed.  One atomic
  // load: waiters poll it after every simulator event.
  [[nodiscard]] bool latest_halt_complete() const;
  [[nodiscard]] std::optional<WaveInfo> halt_wave(std::uint64_t wave) const;
  [[nodiscard]] std::optional<WaveInfo> latest_halt_wave() const;

  [[nodiscard]] std::uint64_t last_snapshot_id() const;
  [[nodiscard]] bool snapshot_complete(std::uint64_t wave) const;
  [[nodiscard]] std::optional<WaveInfo> snapshot_wave(
      std::uint64_t wave) const;

  [[nodiscard]] std::vector<BreakpointHit> hits() const;
  // Occurrences of one breakpoint (monitor-mode chains accumulate these).
  [[nodiscard]] std::size_t hit_count(BreakpointId bp) const;
  [[nodiscard]] std::optional<ProcessSnapshot> state_report(
      ProcessId process) const;

  // Number of halt markers this debugger forwarded (experiment accounting).
  [[nodiscard]] std::uint64_t markers_forwarded() const;

 private:
  // The waves of one kind: the newest id seen and every wave's record.
  struct Waves {
    std::uint64_t last_id = 0;
    std::map<std::uint64_t, WaveInfo> infos;
    [[nodiscard]] const WaveInfo* find(std::uint64_t id) const;
  };

  // Adopt a halt or snapshot marker of a newer wave and forward it to the
  // tier children but `origin` (see TierChildren::forward_marker); markers
  // of known waves need no action.
  void handle_marker(ProcessContext& ctx, ProcessId origin,
                     const Message& marker);
  void merge_report(ProcessContext& ctx, Command&& report);
  void handle_command(ProcessContext& ctx, Command command);
  std::uint64_t initiate(ProcessContext& ctx, WaveKind kind);
  // Send the arm commands for a breakpoint (initial arming and monitor-mode
  // re-arming).
  void arm_spec(ProcessContext& ctx, BreakpointId bp,
                const BreakpointSpec& spec);
  WaveInfo& wave_entry(WaveKind kind, std::uint64_t id, ProcessContext& ctx);
  [[nodiscard]] bool wave_complete(WaveKind kind, std::uint64_t id) const;
  [[nodiscard]] std::optional<WaveInfo> find_wave(WaveKind kind,
                                                  std::uint64_t id) const;
  // Recompute latest_halt_complete_ after the latest halt wave, its
  // completion or the resume watermark changed.  Caller holds mutex_.
  void publish_latest_halt();

  const Topology* topology_ = nullptr;  // bound in on_start
  ProcessId self_;
  ReplaySink* replay_sink_ = nullptr;
  // Immutable after on_start.
  TierChildren children_;

  mutable std::mutex mutex_;
  ByWaveKind<Waves> waves_;
  // Highest halt wave id that has been resumed (see resume_all).
  std::uint64_t resumed_through_ = 0;
  // What latest_halt_complete() reads, without the mutex.
  std::atomic<bool> latest_halt_complete_{false};

  BreakpointId::rep_type next_breakpoint_ = 1;
  std::map<BreakpointId, BreakpointSpec> breakpoints_;
  // Unordered-CP gathering: satisfied term indices per breakpoint.
  std::map<BreakpointId, std::set<std::uint32_t>> satisfied_terms_;
  std::vector<BreakpointHit> hits_;
  std::map<ProcessId, ProcessSnapshot> state_reports_;
  std::uint64_t markers_forwarded_ = 0;
};

}  // namespace ddbg
