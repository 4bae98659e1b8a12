// Recording hooks for the record/replay subsystem (src/replay).
//
// The threaded and TCP runtimes are nondeterministic: thread scheduling and
// the kernel pick the cross-channel interleaving, the fault adversary rolls
// dice per transmission attempt.  Deterministic re-execution needs exactly
// the inputs a process behavior is a function of — the per-channel order in
// which application messages reached each user process, the order its
// timers fired, and the halt cuts the debugger took — plus annotations for
// the transport-level events replay re-derives rather than re-injects
// (fault draws, reconnects, resyncs; the reliability layer hides those from
// the user boundary, so they are diagnostic context, not replay inputs).
//
// ReplaySink is the abstract recording surface.  It lives here, below every
// substrate, so Runtime/TcpRuntime/DebugShim/DebuggerProcess can record
// without depending on src/replay; the concrete ReplayRecorder (writing the
// compact binary log) implements it at the top of the stack.  A null sink
// is the record-off fast path — callers guard every hook with a pointer
// check and touch nothing else, so unrecorded runs stay byte-identical.
#pragma once

#include <cstdint>
#include <span>

#include "common/ids.hpp"
#include "common/serialization.hpp"

namespace ddbg {

// Annotation kinds beyond the fault kinds.  Slots 0..5 mirror
// fault_index(FaultKind) (net/fault_plan.hpp / obs::kFaultKindNames).
inline constexpr std::uint8_t kReplayAnnotationReconnect = 6;
inline constexpr std::uint8_t kReplayAnnotationResync = 7;
inline constexpr std::uint8_t kNumReplayAnnotationKinds = 8;

class ReplaySink {
 public:
  virtual ~ReplaySink() = default;

  // An application message crossed the user-process boundary: the shim is
  // about to hand the `ordinal`-th delivery on channel `in` to process `p`.
  // The payload itself is not logged (replay re-derives it from re-executed
  // sends); the hash pins divergence detection.
  virtual void record_delivery(ProcessId p, ChannelId in,
                               std::uint64_t ordinal,
                               std::uint64_t payload_hash,
                               std::uint64_t payload_bytes) = 0;

  // Process `p` created its `ordinal`-th timer; `timer` is the id the
  // hosting substrate returned (replay hands the same id back so process
  // state that stores timer ids reproduces byte-for-byte).
  virtual void record_timer_set(ProcessId p, std::uint64_t ordinal,
                                TimerId timer) = 0;

  // The timer created as `p`'s `ordinal`-th fired (uncancelled).
  virtual void record_timer_fire(ProcessId p, std::uint64_t ordinal) = 0;

  // A halt wave completed with the assembled S_h; `encoded_state` is the
  // varint-count + ProcessSnapshot wire encoding (core/global_state.hpp).
  // Everything logged before this record is a pre-cut event — processes
  // stay halted (and log nothing) until the resume that follows assembly.
  virtual void record_halt_cut(std::uint64_t wave, Bytes encoded_state) = 0;

  // Transport-level nondeterminism that replay re-derives: a fault draw
  // (kind 0..5), a reconnect (6) or a resync replay (7) on `channel`,
  // always a channel id; `detail` carries the attempt index / 0 / frames
  // replayed.  net/reliable_link emits all of them.
  virtual void record_annotation(std::uint8_t kind, ChannelId channel,
                                 std::uint64_t detail) = 0;
};

// FNV-1a over payload bytes: the divergence-detection hash recorded with
// every delivery.  Stable, seedless, and cheap enough for the record path.
[[nodiscard]] inline std::uint64_t replay_payload_hash(
    std::span<const std::uint8_t> payload) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : payload) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace ddbg
