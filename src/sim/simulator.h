// Discrete-event simulation engine.
//
// A single virtual clock over a binary-heap event queue. Events at equal
// times run in scheduling (FIFO) order — the (time, sequence) tie-break key
// lives in the queue (see event_queue.h and DESIGN.md §12) — which, together
// with seeded RNGs, makes every simulation bit-deterministic. This is the
// substrate substituting for the paper's EC2 cluster: what matters to
// SpecSync is the interleaving of pushes and pulls, and the queue reproduces
// any interleaving exactly.
#pragma once

#include <cstdint>

#include "common/check.h"
#include "common/sim_time.h"
#include "sim/event_fn.h"
#include "sim/event_queue.h"

namespace specsync {

class Simulator {
 public:
  using Callback = EventFn;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute time `at` (must not be in the past).
  void ScheduleAt(SimTime at, Callback fn);

  // Schedules `fn` `delay` from now (delay must be non-negative).
  void ScheduleAfter(Duration delay, Callback fn);

  // Runs events in time order until the queue drains, `until` is passed, or
  // RequestStop() is called from inside an event. Events scheduled exactly at
  // `until` still run.
  void Run(SimTime until = SimTime::Infinite());

  // Runs exactly one event if available; returns false when the queue is
  // empty.
  bool Step();

  // Stops Run() after the current event returns.
  void RequestStop() { stop_requested_ = true; }

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_processed() const { return events_processed_; }

 private:
  SimTime now_ = SimTime::Zero();
  BinaryHeapQueue<EventFn> queue_;
  std::uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace specsync
