#include "debugger/debugger_process.hpp"

#include <utility>

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace ddbg {

namespace {

// Arm spans are keyed by (breakpoint, target process): span_begin here when
// the arm command leaves the debugger, span_end in the target's shim when
// the watch is installed.
std::uint64_t arm_span_key(BreakpointId bp, ProcessId target) {
  return obs::MetricsRegistry::key(bp.value(), target.value());
}

obs::Span wave_span(WaveKind kind) {
  return kind == WaveKind::kHalt ? obs::Span::kHaltWave
                                 : obs::Span::kSnapshotWave;
}

}  // namespace

void DebuggerProcess::on_start(ProcessContext& ctx) {
  topology_ = &ctx.topology();
  self_ = ctx.self();
  DDBG_ASSERT(topology_->has_debugger() && topology_->is_debugger(self_),
              "DebuggerProcess must occupy the topology's debugger slot");
  children_.bind(ctx);
}

void DebuggerProcess::on_message(ProcessContext& ctx, ChannelId in,
                                 Message message) {
  switch (message.kind) {
    case MessageKind::kHaltMarker:
    case MessageKind::kSnapshotMarker:
      handle_marker(ctx, topology_->channel(in).source, message);
      return;
    case MessageKind::kControl: {
      auto command = Command::decode(message.payload);
      if (!command.ok()) {
        DDBG_ERROR() << "debugger: bad control message: "
                     << command.error().to_string();
        return;
      }
      handle_command(ctx, std::move(command).value());
      return;
    }
    default:
      DDBG_WARN() << "debugger: unexpected " << to_string(message.kind);
  }
}

const DebuggerProcess::WaveInfo* DebuggerProcess::Waves::find(
    std::uint64_t id) const {
  const auto it = infos.find(id);
  return it == infos.end() ? nullptr : &it->second;
}

DebuggerProcess::WaveInfo& DebuggerProcess::wave_entry(WaveKind kind,
                                                       std::uint64_t id,
                                                       ProcessContext& ctx) {
  auto [it, inserted] = waves_[kind].infos.try_emplace(id);
  if (inserted) {
    it->second.id = id;
    it->second.started_at = ctx.now();
    it->second.state = GlobalState(HaltId(id));
    if (auto* m = ctx.metrics()) m->span_begin(wave_span(kind), id, ctx.now());
  }
  return it->second;
}

void DebuggerProcess::handle_marker(ProcessContext& ctx, ProcessId origin,
                                    const Message& marker) {
  const WaveKind kind = marker_kind(marker);
  const std::uint64_t id = marker_wave(marker);
  // All mutating entry points run on the debugger's own thread; mutex_ only
  // shields the state observer threads read.  Never hold it across
  // ctx.send — on the TCP runtime that is a potentially-blocking socket
  // write, and an observer poll loop would stall behind it.
  {
    std::lock_guard<std::mutex> guard{mutex_};
    // Per-process halt paths come from the reports, not the markers.
    if (id <= waves_[kind].last_id) return;
    // New wave: adopt it and run the forwarding half of the Halt Routine
    // — but never halt (section 2.2.3: "the debugger process d never
    // really halts").  Forwarding down every tier edge is what reaches
    // the processes the application topology cannot.
    waves_[kind].last_id = id;
    wave_entry(kind, id, ctx);
    if (kind == WaveKind::kHalt) publish_latest_halt();
  }
  const std::size_t sent =
      children_.forward_marker(ctx, origin, relay_marker(marker, self_));
  std::lock_guard<std::mutex> guard{mutex_};
  markers_forwarded_ += sent;
}

void DebuggerProcess::merge_report(ProcessContext& ctx, Command&& report) {
  std::lock_guard<std::mutex> guard{mutex_};
  const WaveKind kind = report_kind(report);
  WaveInfo& wave = wave_entry(kind, report.wave_id, ctx);
  // Convergecast: a child aggregator's merged subtree arrives as one
  // report; every snapshot moves straight into the assembling state.
  for_each_report(report, [&](ProcessSnapshot& snapshot) {
    wave.state.add(std::move(snapshot));
  });
  // Complete once every user process has reported.
  if (wave.complete || wave.state.size() != topology_->num_user_processes()) {
    return;
  }
  wave.complete = true;
  wave.completed_at = ctx.now();
  if (auto* m = ctx.metrics()) {
    m->span_end(wave_span(kind), wave.id, ctx.now());
  }
  if (kind != WaveKind::kHalt) return;
  DDBG_INFO() << "debugger: halt wave " << wave.id << " complete at "
              << to_string(wave.completed_at);
  // Record the assembled S_h: the replay log's ground truth for "the
  // consistent cut this run actually took" (Theorem-2 comparison target).
  if (replay_sink_ != nullptr) {
    replay_sink_->record_halt_cut(wave.id, wave.state.encode_snapshots());
  }
  // Last, so a waiter that sees the halt complete also sees its span and
  // recorded cut.
  publish_latest_halt();
}

void DebuggerProcess::handle_command(ProcessContext& ctx, Command command) {
  switch (command.kind) {
    case CommandKind::kHaltReport:
    case CommandKind::kSnapshotReport:
      DDBG_ASSERT(command.report.has_value(), "report without snapshot");
      [[fallthrough]];
    case CommandKind::kAggregatedHaltReport:
    case CommandKind::kAggregatedSnapshotReport:
      merge_report(ctx, std::move(command));
      return;
    case CommandKind::kBreakpointHit: {
      if (auto* m = ctx.metrics()) {
        m->span_end(obs::Span::kBreakpointNotify,
                    arm_span_key(command.breakpoint, command.reporter),
                    ctx.now());
      }
      bool rearm = false;
      BreakpointSpec spec;
      {
        std::lock_guard<std::mutex> guard{mutex_};
        hits_.push_back(BreakpointHit{command.breakpoint, command.reporter,
                                      command.text, ctx.now()});
        auto it = breakpoints_.find(command.breakpoint);
        if (it != breakpoints_.end() &&
            it->second.action == BreakpointAction::kMonitor) {
          // EDL-style abstract event (section 4): record the occurrence and
          // re-arm the chain so the recognizer keeps running.
          rearm = true;
          spec = it->second;
        }
      }
      if (rearm) arm_spec(ctx, command.breakpoint, spec);
      return;
    }
    case CommandKind::kNotifySatisfied: {
      bool all_satisfied = false;
      bool monitor = false;
      {
        std::lock_guard<std::mutex> guard{mutex_};
        auto spec = breakpoints_.find(command.breakpoint);
        if (spec == breakpoints_.end()) return;  // fired already or cleared
        monitor = spec->second.action == BreakpointAction::kMonitor;
        auto& satisfied = satisfied_terms_[command.breakpoint];
        satisfied.insert(command.stage_index);
        all_satisfied =
            satisfied.size() == spec->second.conjunctive.terms.size();
        if (all_satisfied) {
          hits_.push_back(BreakpointHit{
              command.breakpoint, command.reporter,
              "unordered conjunction gathered at debugger", ctx.now()});
          if (monitor) {
            // Abstract event: reset the gather; the notify watches persist.
            satisfied_terms_[command.breakpoint].clear();
          } else {
            // One-shot: drop the breakpoint so the notifications still in
            // flight cannot re-trigger a second wave on top of this one.
            breakpoints_.erase(spec);
            satisfied_terms_.erase(command.breakpoint);
          }
        }
      }
      // The unordered-CP interpretation: once every term has been reported
      // satisfied, halt.  The gather is inherently late — experiment E8
      // measures by how much.
      if (all_satisfied && !monitor) {
        children_.broadcast(ctx, Command::disarm(command.breakpoint).encode());
        initiate_halt(ctx);
      }
      return;
    }
    case CommandKind::kRouteMarker: {
      // Predicate-marker routing for process pairs with no direct channel.
      if (auto* m = ctx.metrics()) {
        m->span_begin(obs::Span::kArm,
                      arm_span_key(command.breakpoint, command.target),
                      ctx.now());
      }
      children_.unicast(ctx, command.target,
                        Command::arm_predicate(command.breakpoint,
                                               command.predicate,
                                               command.stage_index,
                                               command.monitor)
                            .encode());
      return;
    }
    case CommandKind::kStateReport: {
      std::lock_guard<std::mutex> guard{mutex_};
      DDBG_ASSERT(command.report.has_value(), "state report without snapshot");
      state_reports_[command.reporter] = *command.report;
      return;
    }
    default:
      DDBG_WARN() << "debugger: unexpected command "
                  << to_string(command.kind);
  }
}

namespace {

// Every process a spec names must exist as a user process; otherwise the
// arm commands would target nonexistent control channels.
bool spec_targets_valid(const BreakpointSpec& spec,
                        std::uint32_t num_user_processes) {
  auto all_valid = [num_user_processes](const std::vector<ProcessId>& ids) {
    for (const ProcessId p : ids) {
      if (p.value() >= num_user_processes) return false;
    }
    return true;
  };
  if (spec.kind == BreakpointSpec::Kind::kLinked) {
    if (spec.linked.empty()) return false;
    for (const auto& stage : spec.linked.stages) {
      if (stage.dp.alternatives.empty()) return false;
      if (!all_valid(stage.dp.involved_processes())) return false;
    }
    return true;
  }
  return !spec.conjunctive.terms.empty() &&
         all_valid(spec.conjunctive.involved_processes());
}

}  // namespace

BreakpointId DebuggerProcess::set_breakpoint(ProcessContext& ctx,
                                             const BreakpointSpec& spec) {
  if (!spec_targets_valid(spec, topology_->num_user_processes())) {
    DDBG_WARN() << "debugger: breakpoint names a process outside the "
                   "topology or is empty: "
                << spec.describe();
    return BreakpointId();  // invalid
  }
  BreakpointId bp;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    bp = BreakpointId(next_breakpoint_++);
    breakpoints_[bp] = spec;
  }
  arm_spec(ctx, bp, spec);
  return bp;
}

void DebuggerProcess::arm_spec(ProcessContext& ctx, BreakpointId bp,
                               const BreakpointSpec& spec) {
  const bool monitor = spec.action == BreakpointAction::kMonitor;
  auto trace_arm = [&](ProcessId target) {
    if (auto* m = ctx.metrics()) {
      m->span_begin(obs::Span::kArm, arm_span_key(bp, target), ctx.now());
    }
  };
  if (spec.kind == BreakpointSpec::Kind::kLinked) {
    // The Predicate-Marker-Sending Rule: ship the LP to every process
    // involved in the first DP.
    const LinkedPredicate lp = spec.linked.expanded();
    const Bytes encoded = lp.encode_to_bytes();
    for (const ProcessId p : lp.first().involved_processes()) {
      trace_arm(p);
      children_.unicast(
          ctx, p, Command::arm_predicate(bp, encoded, 0, monitor).encode());
    }
    return;
  }
  if (spec.mode == ConjunctionMode::kOrdered) {
    // Ordered interpretation: every permutation chain is armed; whichever
    // interleaving the execution produces, some chain walks it.
    auto chains = spec.conjunctive.compile_ordered();
    if (!chains.ok()) {
      DDBG_ERROR() << "debugger: " << chains.error().to_string();
      return;
    }
    for (const LinkedPredicate& lp : chains.value()) {
      const Bytes encoded = lp.encode_to_bytes();
      for (const ProcessId p : lp.first().involved_processes()) {
        trace_arm(p);
        children_.unicast(
            ctx, p, Command::arm_predicate(bp, encoded, 0, monitor).encode());
      }
    }
    return;
  }
  // Unordered interpretation: persistent notify watches, gathered here.
  for (std::uint32_t i = 0; i < spec.conjunctive.terms.size(); ++i) {
    const SimplePredicate& sp = spec.conjunctive.terms[i];
    ByteWriter writer;
    sp.encode(writer);
    trace_arm(sp.process);
    children_.unicast(
        ctx, sp.process,
        Command::arm_notify(bp, std::move(writer).take(), i).encode());
  }
}

void DebuggerProcess::clear_breakpoint(ProcessContext& ctx, BreakpointId bp) {
  {
    std::lock_guard<std::mutex> guard{mutex_};
    breakpoints_.erase(bp);
    satisfied_terms_.erase(bp);
  }
  children_.broadcast(ctx, Command::disarm(bp).encode());
}

std::uint64_t DebuggerProcess::initiate_halt(ProcessContext& ctx) {
  return initiate(ctx, WaveKind::kHalt);
}

std::uint64_t DebuggerProcess::initiate_snapshot(ProcessContext& ctx) {
  return initiate(ctx, WaveKind::kSnapshot);
}

std::uint64_t DebuggerProcess::initiate(ProcessContext& ctx, WaveKind kind) {
  std::uint64_t wave = 0;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    wave = waves_[kind].last_id + 1;
  }
  // As if d's own marker with an empty path arrived: it is adopted and
  // relayed, named by d, to every tier child.
  handle_marker(ctx, self_,
                kind == WaveKind::kHalt
                    ? Message::halt_marker(HaltId(wave), {})
                    : Message::snapshot_marker(wave));
  return wave;
}

void DebuggerProcess::resume_all(ProcessContext& ctx) {
  std::uint64_t wave = 0;
  {
    std::lock_guard<std::mutex> guard{mutex_};
    wave = waves_[WaveKind::kHalt].last_id;
    // Waves up to here are over: latest_halt_complete() now refers to the
    // *next* wave, so a session can wait for a fresh halt after resuming.
    resumed_through_ = wave;
    publish_latest_halt();
  }
  if (wave == 0) return;
  children_.broadcast(ctx, Command::resume(wave).encode());
}

void DebuggerProcess::query_state(ProcessContext& ctx, ProcessId target) {
  {
    // Drop any previous report so a waiter sees only the fresh answer.
    std::lock_guard<std::mutex> guard{mutex_};
    state_reports_.erase(target);
  }
  children_.unicast(ctx, target, Command::query_state().encode());
}

bool DebuggerProcess::wave_complete(WaveKind kind, std::uint64_t id) const {
  std::lock_guard<std::mutex> guard{mutex_};
  const WaveInfo* wave = waves_[kind].find(id);
  return wave != nullptr && wave->complete;
}

std::optional<DebuggerProcess::WaveInfo> DebuggerProcess::find_wave(
    WaveKind kind, std::uint64_t id) const {
  std::lock_guard<std::mutex> guard{mutex_};
  const WaveInfo* wave = waves_[kind].find(id);
  if (wave == nullptr) return std::nullopt;
  return *wave;
}

std::uint64_t DebuggerProcess::last_halt_id() const {
  std::lock_guard<std::mutex> guard{mutex_};
  return waves_[WaveKind::kHalt].last_id;
}

bool DebuggerProcess::halt_complete(std::uint64_t wave) const {
  return wave_complete(WaveKind::kHalt, wave);
}

void DebuggerProcess::publish_latest_halt() {
  const Waves& halts = waves_[WaveKind::kHalt];
  bool complete = false;
  if (halts.last_id != 0 && halts.last_id > resumed_through_) {
    const WaveInfo* wave = halts.find(halts.last_id);
    complete = wave != nullptr && wave->complete;
  }
  latest_halt_complete_.store(complete, std::memory_order_release);
}

bool DebuggerProcess::latest_halt_complete() const {
  return latest_halt_complete_.load(std::memory_order_acquire);
}

std::optional<DebuggerProcess::WaveInfo> DebuggerProcess::halt_wave(
    std::uint64_t wave) const {
  return find_wave(WaveKind::kHalt, wave);
}

std::optional<DebuggerProcess::WaveInfo> DebuggerProcess::latest_halt_wave()
    const {
  std::lock_guard<std::mutex> guard{mutex_};
  const Waves& halts = waves_[WaveKind::kHalt];
  const WaveInfo* wave =
      halts.last_id == 0 ? nullptr : halts.find(halts.last_id);
  if (wave == nullptr) return std::nullopt;
  return *wave;
}

std::uint64_t DebuggerProcess::last_snapshot_id() const {
  std::lock_guard<std::mutex> guard{mutex_};
  return waves_[WaveKind::kSnapshot].last_id;
}

bool DebuggerProcess::snapshot_complete(std::uint64_t wave) const {
  return wave_complete(WaveKind::kSnapshot, wave);
}

std::optional<DebuggerProcess::WaveInfo> DebuggerProcess::snapshot_wave(
    std::uint64_t wave) const {
  return find_wave(WaveKind::kSnapshot, wave);
}

std::vector<DebuggerProcess::BreakpointHit> DebuggerProcess::hits() const {
  std::lock_guard<std::mutex> guard{mutex_};
  return hits_;
}

std::size_t DebuggerProcess::hit_count(BreakpointId bp) const {
  std::lock_guard<std::mutex> guard{mutex_};
  std::size_t count = 0;
  for (const BreakpointHit& hit : hits_) {
    if (hit.breakpoint == bp) ++count;
  }
  return count;
}

std::optional<ProcessSnapshot> DebuggerProcess::state_report(
    ProcessId process) const {
  std::lock_guard<std::mutex> guard{mutex_};
  auto it = state_reports_.find(process);
  if (it == state_reports_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t DebuggerProcess::markers_forwarded() const {
  std::lock_guard<std::mutex> guard{mutex_};
  return markers_forwarded_;
}

}  // namespace ddbg
