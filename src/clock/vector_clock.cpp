#include "clock/vector_clock.hpp"

#include <algorithm>
#include <sstream>

namespace ddbg {

CausalOrder VectorClock::compare(const VectorClock& other) const {
  const std::size_t n = std::max(counts_.size(), other.counts_.size());
  bool less_somewhere = false;
  bool greater_somewhere = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = i < counts_.size() ? counts_[i] : 0;
    const std::uint64_t b = i < other.counts_.size() ? other.counts_[i] : 0;
    if (a < b) less_somewhere = true;
    if (a > b) greater_somewhere = true;
    // Divergence in both directions is already kConcurrent; the remaining
    // components cannot change the verdict.
    if (less_somewhere && greater_somewhere) return CausalOrder::kConcurrent;
  }
  if (less_somewhere && greater_somewhere) return CausalOrder::kConcurrent;
  if (less_somewhere) return CausalOrder::kBefore;
  if (greater_somewhere) return CausalOrder::kAfter;
  return CausalOrder::kEqual;
}

void VectorClock::encode(ByteWriter& writer) const {
  writer.varint(counts_.size());
  writer.varints(counts_);
}

Result<VectorClock> VectorClock::decode(ByteReader& reader) {
  auto n = reader.count();
  if (!n.ok()) return n.error();
  VectorClock clock;
  // count() bounds n by the bytes left, so this allocation is bounded too.
  clock.counts_.resize(n.value());
  if (Status read = reader.varints(clock.counts_); !read.ok()) {
    return read.error();
  }
  return clock;
}

std::string VectorClock::to_string() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (i != 0) out << ',';
    out << counts_[i];
  }
  out << ']';
  return out.str();
}

}  // namespace ddbg
