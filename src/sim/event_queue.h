// The DES event queue (DESIGN.md §12): a binary heap over pooled entries.
//
// ## Ordering contract (the golden-trace invariant)
//
// Events pop in strictly increasing (time, sequence) order, where `sequence`
// is the queue-assigned insertion counter, so events at equal times pop in
// push (FIFO) order. Pop order depends on nothing else, which is what makes
// every pinned trace digest reproducible (regression-proved against an
// independent reference model in tests/sim/event_queue_test.cc).
//
// ## Payload lifetime
//
// PopMin() moves the payload OUT of the heap before returning: a callback
// that pushes new events may grow the entry vector and relocate every entry,
// so callers must never invoke a payload in place.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"

namespace specsync {

template <typename T>
class BinaryHeapQueue {
 public:
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  void Push(SimTime time, T value) {
    SPECSYNC_CHECK(time.seconds() >= 0.0 && time.is_finite())
        << "event time must be finite and non-negative: " << time;
    entries_.push_back(Entry{time.seconds(), next_sequence_++,
                             std::move(value)});
    std::push_heap(entries_.begin(), entries_.end(), Later{});
  }

  SimTime PeekTime() {
    SPECSYNC_CHECK(!entries_.empty()) << "empty heap queue";
    return SimTime::FromSeconds(entries_.front().time);
  }

  T PopMin(SimTime* time_out = nullptr) {
    SPECSYNC_CHECK(!entries_.empty()) << "empty heap queue";
    std::pop_heap(entries_.begin(), entries_.end(), Later{});
    Entry entry = std::move(entries_.back());
    entries_.pop_back();
    if (time_out != nullptr) *time_out = SimTime::FromSeconds(entry.time);
    return std::move(entry.value);
  }

 private:
  struct Entry {
    double time = 0.0;
    std::uint64_t sequence = 0;
    T value{};
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;  // FIFO among equal times
    }
  };

  std::vector<Entry> entries_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace specsync
