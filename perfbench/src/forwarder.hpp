// The benchmark's one user process: a token forwarder.
//
// Every process launches `tokens_per_process` tokens at start and forwards
// each token it receives, at once, to its next outgoing application channel
// (round robin), so the system keeps a constant number of tokens in
// flight.  The watched variable `hops` (deliveries so far) is exposed via
// set_var, which is what `break pX:hops>=T` matches.  The snapshot is
// (sent, received), so every halted state S_h can be checked for token
// conservation: sum(sent) - sum(received) == recorded channel messages ==
// total tokens.
//
// The process is a pure function of its deliveries, which is what lets a
// recorded threaded run replay in the simulator.  Token values come from
// the benchmark seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/debug_api.hpp"
#include "net/message.hpp"

namespace perfbench {

// State the benchmark thread reads while the process runs on its own
// thread.  `captured` is written by the process thread only while
// `capture` is set, and read by the benchmark only after the substrate has
// stopped (or, on the simulator, between run calls).
struct ForwarderProbe {
  std::atomic<std::uint64_t> received{0};
  // Breakpoint-latency probe: the runtime-clock time (ns) at which `hops`
  // first reached `watch_target`; -1 until then.
  std::atomic<std::int64_t> watch_target{-1};
  std::atomic<std::int64_t> watch_reached_ns{-1};
  std::atomic<bool> capture{false};
  std::size_t capture_limit = 0;
  std::vector<ddbg::Message> captured;
};

struct ForwarderConfig {
  std::uint32_t tokens_per_process = 1;
  std::uint64_t seed = 1;
};

class TokenForwarder final : public ddbg::Debuggable {
 public:
  TokenForwarder(ForwarderConfig config, std::shared_ptr<ForwarderProbe> probe)
      : config_(config), probe_(std::move(probe)) {}

  void on_start(ddbg::ProcessContext& ctx) override;
  void on_message(ddbg::ProcessContext& ctx, ddbg::ChannelId in,
                  ddbg::Message message) override;
  [[nodiscard]] ddbg::Bytes snapshot_state() const override;
  [[nodiscard]] std::string describe_state() const override;

 private:
  void forward(ddbg::ProcessContext& ctx, ddbg::Bytes payload);

  ForwarderConfig config_;
  std::shared_ptr<ForwarderProbe> probe_;
  std::vector<ddbg::ChannelId> out_;
  std::size_t next_out_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

// Decoded (sent, received) of one forwarder snapshot.
struct ForwarderCounts {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
};
[[nodiscard]] bool decode_counts(const ddbg::Bytes& state,
                                 ForwarderCounts& counts);

using Probes = std::vector<std::shared_ptr<ForwarderProbe>>;

// n forwarders with fresh probes (appended to `probes` when non-null).
[[nodiscard]] std::vector<ddbg::ProcessPtr> make_forwarders(
    std::uint32_t n, ForwarderConfig config, Probes* probes = nullptr);

// Application deliveries so far, over all probes.
[[nodiscard]] double total_received(const Probes& probes);
// Starts (on) or stops capturing up to `per_probe` messages per process.
void set_capture(Probes& probes, bool on, std::size_t per_probe = 0);
// Moves every captured message into `out`.
void collect_captured(Probes& probes, std::vector<ddbg::Message>& out);

}  // namespace perfbench
