// What the nodes of the debugger tier share: the root DebuggerProcess and
// every AggregatorProcess carry halt and snapshot waves the same way, and
// reach their direct tier children the same way.
//
// A halting wave is a C&L recording wave that also halts (Lemma 2.1), so a
// tier node, which never really halts (section 2.2.3), treats both alike:
// adopt a marker with a newer id than it has seen, forward it down the
// tree, merge the reports that come back.  Only the root's halt-only steps
// (halt paths, the replay cut, the resume watermark) depend on the kind.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "core/commands.hpp"
#include "net/process.hpp"

namespace ddbg {

enum class WaveKind : std::uint8_t { kHalt, kSnapshot };

// One T per wave kind.
template <typename T>
class ByWaveKind {
 public:
  T& operator[](WaveKind kind) { return slots_[static_cast<int>(kind)]; }
  const T& operator[](WaveKind kind) const {
    return slots_[static_cast<int>(kind)];
  }

 private:
  std::array<T, 2> slots_{};
};

// The kind of a halt or snapshot marker, and the id of its wave.
[[nodiscard]] WaveKind marker_kind(const Message& marker);
[[nodiscard]] std::uint64_t marker_wave(const Message& marker);
// The kind of a (leaf or aggregated) halt or snapshot report.
[[nodiscard]] WaveKind report_kind(const Command& report);
// The marker a tier node forwards for a wave it adopts: halt markers get
// `self` appended to their halt path (section 2.2.4).
[[nodiscard]] Message relay_marker(const Message& marker, ProcessId self);

// Call `add` on every ProcessSnapshot a report carries: a user's own
// snapshot, or an aggregator's merged subtree.
template <typename Add>
void for_each_report(Command& report, Add&& add) {
  if (report.report.has_value()) add(*report.report);
  for (ProcessSnapshot& snapshot : report.reports) add(snapshot);
}

// A tier node's direct children: all user processes under a flat
// debugger, aggregators and/or users in tree mode.
class TierChildren {
 public:
  // Bind to the tier node `ctx` runs; records the fanout.
  void bind(ProcessContext& ctx);

  // The direct child whose subtree covers user process `target` (the
  // target itself when it is a direct child).
  [[nodiscard]] ProcessId route(ProcessId target) const;
  // Send the encoded command `inner` to user `target`: directly when it is
  // a direct child, otherwise as its tier_unicast envelope (`envelope`,
  // built when empty) to the child that covers it.
  void unicast(ProcessContext& ctx, ProcessId target, Bytes inner,
               Bytes envelope = {}) const;
  // Send `inner` to every user child and its tier_broadcast envelope
  // (`envelope`, built on first need when empty) to every aggregator child.
  void broadcast(ProcessContext& ctx, const Bytes& inner,
                 Bytes envelope = {}) const;
  // Send a wave marker to every child but the aggregator it came from,
  // which already flooded its own subtree.  Returns the markers sent.
  std::size_t forward_marker(ProcessContext& ctx, ProcessId origin,
                             const Message& marker) const;

 private:
  const Topology* topology_ = nullptr;
  std::vector<ProcessId> children_;
};

}  // namespace ddbg
