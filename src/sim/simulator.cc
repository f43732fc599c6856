#include "sim/simulator.h"

#include <utility>

namespace specsync {

void Simulator::ScheduleAt(SimTime at, Callback fn) {
  SPECSYNC_CHECK(at >= now_) << "cannot schedule in the past: " << at
                             << " < " << now_;
  SPECSYNC_CHECK(static_cast<bool>(fn)) << "scheduling an empty callback";
  queue_.Push(at, std::move(fn));
}

void Simulator::ScheduleAfter(Duration delay, Callback fn) {
  SPECSYNC_CHECK(delay >= Duration::Zero())
      << "negative delay: " << delay;
  ScheduleAt(now_ + delay, std::move(fn));
}

bool Simulator::Step() {
  if (queue_.empty()) return false;
  // PopMin moves the callback out of the queue before we invoke it: the
  // callback may schedule new events, which can grow the heap and relocate
  // every entry (event_queue.h, payload lifetime).
  SimTime time;
  EventFn fn = queue_.PopMin(&time);
  now_ = time;
  ++events_processed_;
  fn();
  return true;
}

void Simulator::Run(SimTime until) {
  stop_requested_ = false;
  while (!stop_requested_ && !queue_.empty()) {
    if (queue_.PeekTime() > until) break;
    Step();
  }
}

}  // namespace specsync
