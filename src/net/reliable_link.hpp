// Reliable links: the one home of the fault and recovery policy.
//
// net/reliable.hpp holds the sequencing machines, net/fault_plan.hpp the
// adversary.  This module is the policy between them that the simulator,
// the threaded runtime and the TCP runtime share: which attempt stream a
// frame or an ack draws its fault from, what each fault kind does to the
// frame, which counters and replay annotations it emits, and "suppress
// duplicates, ack every arrival".  A substrate keeps only how it moves a
// frame or an ack (with any extra delay) and what a reset does to its
// connection.
//
// A substrate holds one LinkTable: both halves of every channel's link,
// indexed by channel id.  A LinkSender is used only by the channel
// source's thread (or simulation lane), a LinkReceiver only by the
// destination's, so neither takes a lock.  Both report to the table's
// LinkEnv, whose metrics are relaxed atomics and whose replay sink locks
// internally.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "net/fault_plan.hpp"
#include "net/message.hpp"
#include "net/reliable.hpp"
#include "net/replay_hooks.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"

namespace ddbg {

// Shared by every link half of one substrate; fixed before any link exists.
struct LinkEnv {
  const FaultPlan* plan = nullptr;
  ReliableConfig reliable;
  obs::MetricsRegistry* metrics = nullptr;
  ReplaySink* replay = nullptr;  // null: annotations are not recorded

  // The connection carrying `channel` was re-established: count it and
  // annotate the replay log with the channel (detail 0).
  void on_reconnect(ChannelId channel) const;
};

// What the substrate does with one transmission attempt of a data frame.
struct LinkTransmit {
  std::uint64_t attempt = 0;  // index in the channel's data attempt stream
  // The staged frame; valid until the sender is next changed.
  const ReliableSender::Staged* frame = nullptr;
  // Copies to put in flight: 0 (dropped, partitioned, reset), 1, or 2.
  std::uint8_t copies = 1;
  Duration extra_delay{0};  // added to each copy's transit (reorder, delay)
  // The connection went down under the frame; once it is back the
  // substrate calls resync().  `redial` is set when no reconnect was
  // already pending: the substrate schedules one now.
  bool reset = false;
  bool redial = false;
};

// The sender half: the retransmit window and the data attempt stream.
class LinkSender {
 public:
  LinkSender(const LinkEnv& env, ChannelId channel)
      : env_(&env), channel_(channel), window_(env.reliable) {}

  // Track `message` until it is acked; returns its sequence number.
  std::uint64_t stage(Message message, std::uint64_t meta, TimePoint now) {
    return window_.stage(std::move(message), meta, now);
  }

  // Roll the plan for one transmission attempt of frame `seq`, counting
  // and annotating any fault.  nullopt when `seq` was acked meanwhile
  // (nothing to send, no attempt drawn).
  [[nodiscard]] std::optional<LinkTransmit> transmit(std::uint64_t seq);

  // Frames whose retransmit deadline passed at `now`, each counted as a
  // retransmit.  The substrate transmit()s every one.
  [[nodiscard]] std::vector<std::uint64_t> retransmits(TimePoint now);

  void ack(std::uint64_t cum_ack) { window_.ack(cum_ack); }

  // The connection is back: every unacked frame becomes due at `now`,
  // counted (and, when any, annotated) as resync replay.
  void resync(TimePoint now);

  [[nodiscard]] std::optional<TimePoint> next_deadline() const {
    return window_.next_deadline();
  }
  [[nodiscard]] const ReliableSender::Staged* peek(std::uint64_t seq) const {
    return window_.peek(seq);
  }

 private:
  const LinkEnv* env_;
  ChannelId channel_;
  ReliableSender window_;
  std::uint64_t attempts_ = 0;
  bool reconnect_pending_ = false;
};

// What the substrate does with one ack attempt that survived the plan.
struct LinkAck {
  std::uint64_t attempt = 0;  // index in the channel's ack attempt stream
  std::uint64_t cum_ack = 0;  // the receiver's cumulative ack at the roll
  Duration extra_delay{0};    // added to the ack's transit time
};

// The receiver half: in-order release and the ack attempt stream.
class LinkReceiver {
 public:
  LinkReceiver(const LinkEnv& env, ChannelId channel)
      : env_(&env), channel_(channel) {}

  // Feed one arriving data frame.  Duplicates are counted and suppressed;
  // the frame and any held run it unblocks are appended to `out` in order.
  // Every arrival, duplicates included, owes the sender an ack(): a re-ack
  // is what stops the retransmission of a frame whose ack was lost.
  void on_frame(std::uint64_t seq, Message message, std::uint64_t meta,
                std::vector<ReliableReceiver::Delivery>& out);

  // Roll the plan for one ack attempt.  nullopt when the adversary drops
  // it: acks are cumulative, so the next one carries its news.
  [[nodiscard]] std::optional<LinkAck> ack();

  [[nodiscard]] std::uint64_t cum_ack() const { return window_.cum_ack(); }

 private:
  const LinkEnv* env_;
  ChannelId channel_;
  ReliableReceiver window_;
  std::uint64_t ack_attempts_ = 0;
};

// Every channel's link halves for one substrate, built once.  Without a
// fault plan the table is empty and enabled() is false: the substrate
// moves messages directly.  Non-movable, because the halves point at env_.
class LinkTable {
 public:
  LinkTable(const Topology& topology, std::shared_ptr<const FaultPlan> plan,
            const ReliableConfig& reliable, obs::MetricsRegistry& metrics,
            std::shared_ptr<ReplaySink> replay);
  LinkTable(const LinkTable&) = delete;
  LinkTable& operator=(const LinkTable&) = delete;

  [[nodiscard]] bool enabled() const { return plan_ != nullptr; }
  [[nodiscard]] const ReliableConfig& reliable() const {
    return env_.reliable;
  }

  [[nodiscard]] LinkSender& sender(ChannelId channel) {
    return senders_[channel.value()];
  }
  [[nodiscard]] LinkReceiver& receiver(ChannelId channel) {
    return receivers_[channel.value()];
  }
  void on_reconnect(ChannelId channel) const { env_.on_reconnect(channel); }

 private:
  std::shared_ptr<const FaultPlan> plan_;
  std::shared_ptr<ReplaySink> replay_;
  LinkEnv env_;
  std::vector<LinkSender> senders_;
  std::vector<LinkReceiver> receivers_;
};

}  // namespace ddbg
