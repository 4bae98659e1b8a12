// The simulator's event queue: a 4-ary min-heap ordered by (when, seq).
//
// The heap holds each event's ordering key inline next to the owning
// pointer, so a sift compares 24-byte keys in one contiguous array instead
// of dereferencing two heap-allocated events per comparison.  Four children
// per node halve the tree depth of a binary heap; the extra comparisons per
// level stay inside one or two cache lines of keys.
//
// Keys are unique by seq, so pop order is one total order: identical to a
// binary heap or std::priority_queue over the same (when, seq) pairs.  The
// sequential loop and every parallel lane use this one type.
//
// T is any type with `TimePoint when` and `std::uint64_t seq` members.  The
// heap owns its events: pop() hands one back as a unique_ptr, and the
// destructor deletes any still queued.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.hpp"
#include "common/time.hpp"

namespace ddbg {

template <typename T>
class EventHeap {
 public:
  EventHeap() = default;
  ~EventHeap() {
    for (const Key& key : keys_) delete key.event;
  }
  EventHeap(const EventHeap&) = delete;
  EventHeap& operator=(const EventHeap&) = delete;
  EventHeap(EventHeap&&) = delete;
  EventHeap& operator=(EventHeap&&) = delete;

  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  // The earliest event; its time is read from the inline key.
  [[nodiscard]] const T& top() const {
    DDBG_ASSERT(!keys_.empty(), "top() of an empty event heap");
    return *keys_.front().event;
  }
  [[nodiscard]] TimePoint top_when() const {
    DDBG_ASSERT(!keys_.empty(), "top_when() of an empty event heap");
    return TimePoint{keys_.front().when};
  }

  // `event->when` and `event->seq` must be final: the key is copied here.
  void push(std::unique_ptr<T> event) {
    const Key key{event->when.ns, event->seq, event.get()};
    keys_.emplace_back();
    event.release();
    sift_up(keys_.size() - 1, key);
  }

  [[nodiscard]] std::unique_ptr<T> pop() {
    DDBG_ASSERT(!keys_.empty(), "pop() of an empty event heap");
    std::unique_ptr<T> out(keys_.front().event);
    const Key last = keys_.back();
    keys_.pop_back();
    if (!keys_.empty()) sift_down(last);
    return out;
  }

 private:
  struct Key {
    std::int64_t when;
    std::uint64_t seq;
    T* event;
  };
  static constexpr std::size_t kArity = 4;

  [[nodiscard]] static bool before(const Key& a, const Key& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  // Move the hole at `i` up until `key` fits, then place it.
  void sift_up(std::size_t i, const Key& key) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(key, keys_[parent])) break;
      keys_[i] = keys_[parent];
      i = parent;
    }
    keys_[i] = key;
  }

  // Move the hole at the root down until `key` fits, then place it.
  void sift_down(const Key& key) {
    const std::size_t n = keys_.size();
    std::size_t i = 0;
    while (true) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(keys_[c], keys_[best])) best = c;
      }
      if (!before(keys_[best], key)) break;
      keys_[i] = keys_[best];
      i = best;
    }
    keys_[i] = key;
  }

  std::vector<Key> keys_;
};

}  // namespace ddbg
