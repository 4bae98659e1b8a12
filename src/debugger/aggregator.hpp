// An interior node of the debugger tier (see Topology::with_debugger_tree).
//
// The paper's single debugger process `d` owns one control channel pair per
// user process, so adopting a wave costs O(n) sends from one process and
// collecting the halted state costs O(n) receives into one process.  The
// tier splits both: halt/snapshot markers and control commands broadcast
// down the spanning tree, completion reports convergecast back up with each
// aggregator merging its subtree's ProcessSnapshots into one GlobalState
// fragment before forwarding a single combined report.  Like `d`, an
// aggregator "never really halts" (section 2.2.3) — it only propagates and
// merges.
#pragma once

#include <cstdint>
#include <map>

#include "common/ids.hpp"
#include "core/commands.hpp"
#include "core/global_state.hpp"
#include "debugger/tier.hpp"
#include "net/process.hpp"

namespace ddbg {

class AggregatorProcess final : public Process {
 public:
  AggregatorProcess() = default;

  void on_start(ProcessContext& ctx) override;
  void on_message(ProcessContext& ctx, ChannelId in, Message message) override;
  [[nodiscard]] std::string describe_state() const override {
    return "aggregator";
  }

 private:
  // One in-flight convergecast per wave: snapshots accumulate until every
  // user in this subtree has reported, then ship upward exactly once.
  struct Fragment {
    GlobalState state;
    bool forwarded = false;
  };

  void handle_marker(ProcessContext& ctx, ChannelId in, const Message& marker);
  void handle_command(ProcessContext& ctx, Message& message, Command command);
  void merge_report(ProcessContext& ctx, Command&& command);

  ProcessId self_;
  ProcessId parent_;
  ChannelId up_channel_;  // control channel to the tier parent
  TierChildren children_;
  std::uint32_t subtree_users_ = 0;

  ByWaveKind<std::uint64_t> last_wave_;
  ByWaveKind<std::map<std::uint64_t, Fragment>> frags_;
};

}  // namespace ddbg
