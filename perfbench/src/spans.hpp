// Spans recorded by the benchmark around every call it makes into a layer
// of the program (run_for, halt/wait_for_halt, resume, one session request,
// ReplayDriver::run, the conservation check, a metrics snapshot).
//
// Spans live in memory and are written once at exit as Chrome trace-event
// JSON (chrome://tracing, Perfetto).  The spans of one wave or request
// share an id; a span's parent is the span open when it began.  A layer's
// self time is its spans' durations minus the parts their child spans
// cover.  Single-threaded: only the benchmark's driving thread records.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  // Recording can be paused between cycles (the traced run interleaves
  // traced and untraced traffic windows to price the tracing itself).
  void set_active(bool active) { active_ = active; }
  [[nodiscard]] bool recording() const { return enabled_ && active_; }

  std::size_t begin(const char* name, const char* layer, std::uint64_t id);
  void end(std::size_t index);

  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, const char* layer,
          std::uint64_t id)
        : recorder_(recorder), index_(recorder.begin(name, layer, id)) {}
    ~Scope() { recorder_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::size_t index_;
  };

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  // Self time per layer, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  // Writes the Chrome trace-event JSON; returns false on I/O failure.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    std::uint64_t id;
    std::size_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  bool enabled_;
  bool active_ = true;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
