#include "net/reliable_link.hpp"

namespace ddbg {

namespace {

// Count fault `kind` and annotate it with the attempt that drew it.
void on_fault(const LinkEnv& env, FaultKind kind, ChannelId channel,
              std::uint64_t attempt) {
  env.metrics->on_fault(fault_index(kind));
  if (env.replay != nullptr) {
    env.replay->record_annotation(static_cast<std::uint8_t>(fault_index(kind)),
                                  channel, attempt);
  }
}

}  // namespace

LinkTable::LinkTable(const Topology& topology,
                     std::shared_ptr<const FaultPlan> plan,
                     const ReliableConfig& reliable,
                     obs::MetricsRegistry& metrics,
                     std::shared_ptr<ReplaySink> replay)
    : plan_(std::move(plan)),
      replay_(std::move(replay)),
      env_{plan_.get(), reliable, &metrics, replay_.get()} {
  if (!enabled()) return;
  senders_.reserve(topology.num_channels());
  receivers_.reserve(topology.num_channels());
  for (const ChannelSpec& spec : topology.channels()) {
    senders_.emplace_back(env_, spec.id);
    receivers_.emplace_back(env_, spec.id);
  }
}

void LinkEnv::on_reconnect(ChannelId channel) const {
  metrics->on_reconnect();
  if (replay != nullptr) {
    replay->record_annotation(kReplayAnnotationReconnect, channel, 0);
  }
}

std::optional<LinkTransmit> LinkSender::transmit(std::uint64_t seq) {
  LinkTransmit tx;
  tx.frame = window_.peek(seq);
  if (tx.frame == nullptr) return std::nullopt;
  tx.attempt = attempts_++;
  const FaultDecision fault = env_->plan->decide(channel_, tx.attempt);
  if (fault.kind == FaultKind::kNone) return tx;
  on_fault(*env_, fault.kind, channel_, tx.attempt);
  switch (fault.kind) {
    case FaultKind::kDrop:
    case FaultKind::kPartition:
      tx.copies = 0;  // the retransmit timer recovers
      break;
    case FaultKind::kReset:
      // The frame is lost with the connection; resync after the reconnect
      // replays it with the rest of the window.  At most one reconnect is
      // pending per link.
      env_->metrics->on_channel_down();
      tx.copies = 0;
      tx.reset = true;
      tx.redial = !reconnect_pending_;
      reconnect_pending_ = true;
      break;
    case FaultKind::kDuplicate:
      tx.copies = 2;
      break;
    case FaultKind::kReorder:
    case FaultKind::kDelay:
      tx.extra_delay = fault.extra_delay;
      break;
    case FaultKind::kNone:
      break;
  }
  return tx;
}

std::vector<std::uint64_t> LinkSender::retransmits(TimePoint now) {
  std::vector<std::uint64_t> due = window_.due(now);
  for (std::size_t i = 0; i < due.size(); ++i) env_->metrics->on_retransmit();
  return due;
}

void LinkSender::resync(TimePoint now) {
  reconnect_pending_ = false;
  const std::size_t replayed = window_.mark_all_due(now);
  if (replayed == 0) return;
  env_->metrics->on_resync_replayed(replayed);
  if (env_->replay != nullptr) {
    env_->replay->record_annotation(kReplayAnnotationResync, channel_,
                                    replayed);
  }
}

void LinkReceiver::on_frame(std::uint64_t seq, Message message,
                            std::uint64_t meta,
                            std::vector<ReliableReceiver::Delivery>& out) {
  if (window_.on_frame(seq, std::move(message), meta, out) ==
      ReliableReceiver::Accept::kDuplicate) {
    env_->metrics->on_dup_suppressed();
  }
}

std::optional<LinkAck> LinkReceiver::ack() {
  LinkAck ack;
  ack.attempt = ack_attempts_++;
  ack.cum_ack = window_.cum_ack();
  const FaultDecision fault = env_->plan->decide_ack(channel_, ack.attempt);
  if (fault.kind == FaultKind::kNone) return ack;
  on_fault(*env_, fault.kind, channel_, ack.attempt);
  if (fault.kind == FaultKind::kDrop) return std::nullopt;
  ack.extra_delay = fault.extra_delay;  // kDelay: the only other ack fault
  return ack;
}

}  // namespace ddbg
