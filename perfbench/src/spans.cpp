#include "spans.hpp"

#include <chrono>
#include <fstream>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::size_t SpanRecorder::begin(const char* name, const char* layer,
                                std::uint64_t id) {
  if (!recording()) return kNone;
  const std::size_t parent = open_.empty() ? kNone : open_.back();
  spans_.push_back(Span{name, layer, id, parent, now_ns(), 0});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t index) {
  if (index == kNone) return;
  spans_[index].end_ns = now_ns();
  // Scopes nest, so the span ending is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_ms_by_layer() const {
  // Spans nest strictly on one thread, so a span's children never overlap
  // and their covered time is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNone) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.layer] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e6;
  }
  return self;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << span.name
        << "\",\"cat\":\"" << span.layer << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":1,\"ts\":"
        << static_cast<double>(span.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << ",\"args\":{\"id\":" << span.id << ",\"span\":" << i
        << ",\"parent\":"
        << (span.parent == kNone ? -1 : static_cast<long long>(span.parent))
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
