// Property-based tests of the DES event queue (DESIGN.md §12).
//
// Each trial generates a random event-stream schedule — pushes with delta
// mixtures that force duplicate timestamps, zero-delay self-inserts (a push
// landing exactly at the last popped time), sub-second clusters, and
// far-future outliers — interleaved with pops. The schedule replays against
// the queue under test and an independently written reference model (a flat
// vector popped by min-(time, sequence) scan, no shared code), and every
// observable must match exactly:
//
//  * pop order — each pop returns the same (time, id) pair;
//  * peek      — PeekTime before each pop equals the popped time;
//  * size      — after every op.
//
// On failure the harness shrinks the op list to a 1-minimal counterexample
// (greedy ddmin, same scheme as consistency_property_test) and prints it. A
// deliberately planted tie-break violation (LIFO among equal times) must be
// caught and shrunk to a hand-checkable handful of ops — the harness-teeth
// check.
//
// Schedules are seeded; set SPECSYNC_PROPERTY_SEED to reproduce or explore.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/event_fn.h"
#include "sim/event_queue.h"

namespace specsync {
namespace {

std::uint64_t BaseSeed() {
  if (const char* env = std::getenv("SPECSYNC_PROPERTY_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260808;
}

// --- schedules ---------------------------------------------------------------

// One schedule event: a push of event `id` at (last popped time + delta), or
// a pop of the minimum if any. Every op is executable after arbitrary
// deletions, which keeps shrinking well-defined.
struct Op {
  bool push = true;
  int id = 0;        // push: unique event id (its index in the op list)
  double delta = 0;  // push: seconds after the queue's current floor
};

struct Schedule {
  std::vector<Op> ops;
};

Schedule GenerateSchedule(std::uint64_t seed) {
  Rng rng(seed);
  Schedule s;
  const std::size_t len = 10 + rng.Index(111);  // 10..120 ops
  s.ops.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    Op op;
    op.push = rng.Index(100) < 60;
    if (op.push) {
      op.id = static_cast<int>(i);
      // Delta mixture: exact duplicates of the floor (zero-delay
      // self-inserts), exact duplicates of each other (integer grid),
      // fractions, and far-future outliers.
      const std::size_t shape = rng.Index(10);
      if (shape < 2) {
        op.delta = 0.0;
      } else if (shape < 5) {
        op.delta = static_cast<double>(rng.Index(5));
      } else if (shape < 8) {
        op.delta = rng.Uniform(0.0, 2.0);
      } else if (shape < 9) {
        op.delta = rng.Uniform(100.0, 1100.0);
      } else {
        op.delta = rng.Uniform(1e6, 1e9);
      }
    }
    s.ops.push_back(op);
  }
  return s;
}

std::string FormatOps(const Schedule& s) {
  std::ostringstream out;
  out << "ops:";
  for (const Op& op : s.ops) {
    out << ' ';
    if (op.push) {
      out << "P" << op.id << "@+" << op.delta;
    } else {
      out << "pop";
    }
  }
  return out.str();
}

// --- reference model ---------------------------------------------------------

// Independent implementation of the documented queue semantics: a flat list
// popped by linear min-(time, sequence) scan. Shares no code with the queue
// it judges.
struct RefQueue {
  struct Entry {
    double time = 0.0;
    std::uint64_t sequence = 0;
    int id = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t next_sequence = 0;

  void Push(double time, int id) {
    entries.push_back(Entry{time, next_sequence++, id});
  }
  std::optional<Entry> Pop() {
    if (entries.empty()) return std::nullopt;
    auto min = entries.begin();
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->time < min->time ||
          (it->time == min->time && it->sequence < min->sequence)) {
        min = it;
      }
    }
    Entry out = *min;
    entries.erase(min);
    return out;
  }
};

// --- subjects ----------------------------------------------------------------

// The queue under test, type-erased so the harness can drive the heap and
// planted-bug impostors identically.
struct Subject {
  std::function<void(double time, int id)> push;
  // Returns (PeekTime, popped id); checks internally that peek matches pop.
  std::function<std::optional<std::pair<double, int>>()> pop;
  std::function<std::size_t()> size;
};

using SubjectFactory = std::function<Subject()>;

Subject HeapSubject() {
  auto queue = std::make_shared<BinaryHeapQueue<int>>();
  return {
      [queue](double time, int id) {
        queue->Push(SimTime::FromSeconds(time), id);
      },
      [queue]() -> std::optional<std::pair<double, int>> {
        if (queue->empty()) return std::nullopt;
        const double peek = queue->PeekTime().seconds();
        SimTime popped_at;
        const int id = queue->PopMin(&popped_at);
        EXPECT_EQ(peek, popped_at.seconds());
        return std::make_pair(popped_at.seconds(), id);
      },
      [queue] { return queue->size(); },
  };
}

// The planted bug: correct times, but LIFO among equal times — the tie-break
// violation the (time, sequence) contract exists to forbid. The harness must
// catch it and shrink the witness to a few ops.
Subject LifoTieBreakSubject() {
  auto queue = std::make_shared<RefQueue>();
  return {
      [queue](double time, int id) { queue->Push(time, id); },
      [queue]() -> std::optional<std::pair<double, int>> {
        if (queue->entries.empty()) return std::nullopt;
        auto min = queue->entries.begin();
        for (auto it = queue->entries.begin(); it != queue->entries.end();
             ++it) {
          if (it->time < min->time ||
              (it->time == min->time && it->sequence > min->sequence)) {
            min = it;  // newest-first among ties: the bug
          }
        }
        auto out = std::make_pair(min->time, min->id);
        queue->entries.erase(min);
        return out;
      },
      [queue] { return queue->entries.size(); },
  };
}

// --- execution ---------------------------------------------------------------

struct RunOutcome {
  bool ok = true;
  std::string detail;
};

RunOutcome RunSchedule(const Schedule& schedule, const SubjectFactory& make) {
  Subject subject = make();
  RefQueue ref;
  RunOutcome out;
  double floor = 0.0;  // last popped time; pushes land at floor + delta

  const auto fail = [&](std::size_t op_index, const std::string& what) {
    std::ostringstream msg;
    msg << "op " << op_index << ": " << what;
    out.ok = false;
    out.detail = msg.str();
  };

  const auto check_pop = [&](std::size_t op_index) {
    const auto want = ref.Pop();
    const auto got = subject.pop();
    if (want.has_value() != got.has_value()) {
      fail(op_index, want.has_value() ? "subject empty, reference is not"
                                      : "subject popped from empty queue");
      return false;
    }
    if (!want.has_value()) return true;
    if (got->first != want->time || got->second != want->id) {
      std::ostringstream what;
      what << "pop mismatch: subject (" << got->first << ", id " << got->second
           << "), reference (" << want->time << ", id " << want->id << ")";
      fail(op_index, what.str());
      return false;
    }
    floor = want->time;
    return true;
  };

  for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
    const Op& op = schedule.ops[i];
    if (op.push) {
      const double time = floor + op.delta;
      ref.Push(time, op.id);
      subject.push(time, op.id);
    } else if (!check_pop(i)) {
      return out;
    }
    if (subject.size() != ref.entries.size()) {
      std::ostringstream what;
      what << "size mismatch: subject " << subject.size() << ", reference "
           << ref.entries.size();
      fail(i, what.str());
      return out;
    }
  }

  // Drain: the full remaining order must match.
  while (!ref.entries.empty() || subject.size() > 0) {
    if (!check_pop(schedule.ops.size())) return out;
  }
  return out;
}

// --- shrinking ---------------------------------------------------------------

// Greedy ddmin, same scheme as consistency_property_test: repeatedly delete
// the largest op chunk that preserves the failure, halving the chunk until
// single ops survive. The result is 1-minimal.
Schedule Shrink(Schedule schedule, const SubjectFactory& make) {
  const auto still_fails = [&](const Schedule& candidate) {
    return !RunSchedule(candidate, make).ok;
  };
  std::size_t chunk = std::max<std::size_t>(1, schedule.ops.size() / 2);
  for (;;) {
    bool removed_any = false;
    std::size_t offset = 0;
    while (offset < schedule.ops.size()) {
      Schedule candidate = schedule;
      const std::size_t end = std::min(offset + chunk, candidate.ops.size());
      candidate.ops.erase(candidate.ops.begin() + offset,
                          candidate.ops.begin() + end);
      if (still_fails(candidate)) {
        schedule = std::move(candidate);
        removed_any = true;
      } else {
        offset += chunk;
      }
    }
    if (chunk == 1) {
      if (!removed_any) break;
    } else {
      chunk /= 2;
    }
  }
  return schedule;
}

// --- the battery -------------------------------------------------------------

TEST(EventQueueProperty, MatchesReferenceOn1kRandomStreams) {
  const std::uint64_t base = BaseSeed();
  for (std::size_t trial = 0; trial < 1000; ++trial) {
    const std::uint64_t seed = base + trial * 1000003ULL;
    const Schedule schedule = GenerateSchedule(seed);
    const RunOutcome outcome = RunSchedule(schedule, HeapSubject);
    if (!outcome.ok) {
      const Schedule minimal = Shrink(schedule, HeapSubject);
      FAIL() << "seed " << seed << " (trial " << trial
             << "): " << outcome.detail << "\nminimal counterexample ("
             << minimal.ops.size() << " ops): " << FormatOps(minimal)
             << "\nminimal failure: "
             << RunSchedule(minimal, HeapSubject).detail;
    }
  }
}

TEST(EventQueueProperty, PlantedTieBreakViolationIsCaughtAndShrunk) {
  // The harness must have teeth: a LIFO-among-ties queue fails some stream,
  // and the witness shrinks to a hand-checkable size.
  const std::uint64_t base = BaseSeed();
  bool caught = false;
  for (std::size_t trial = 0; trial < 200 && !caught; ++trial) {
    const Schedule schedule = GenerateSchedule(base + trial * 1000003ULL);
    if (RunSchedule(schedule, LifoTieBreakSubject).ok) continue;
    caught = true;
    const Schedule minimal = Shrink(schedule, LifoTieBreakSubject);
    EXPECT_FALSE(RunSchedule(minimal, LifoTieBreakSubject).ok);
    // Minimal witness: two same-time pushes and a pop (a drain pop needs 0).
    EXPECT_LE(minimal.ops.size(), 4u)
        << "shrinker left a non-minimal witness: " << FormatOps(minimal);
  }
  EXPECT_TRUE(caught)
      << "no generated stream exposed the planted tie-break bug";
}

// --- deterministic edge cases ------------------------------------------------

TEST(EventQueueTest, EqualTimesPopInPushOrder) {
  BinaryHeapQueue<int> queue;
  for (int i = 0; i < 100; ++i) queue.Push(SimTime::FromSeconds(1.0), i);
  for (int i = 0; i < 100; ++i) {
    SimTime at;
    EXPECT_EQ(queue.PopMin(&at), i);
    EXPECT_EQ(at.seconds(), 1.0);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, FarFutureBacklogPopsInOrder) {
  BinaryHeapQueue<int> queue;
  queue.Push(SimTime::FromSeconds(0.25), 1);
  queue.Push(SimTime::FromSeconds(1e12), 2);
  queue.Push(SimTime::FromSeconds(1e12 + 0.5), 3);
  EXPECT_EQ(queue.PopMin(), 1);
  EXPECT_EQ(queue.PopMin(), 2);
  queue.Push(SimTime::FromSeconds(1e12 + 0.25), 4);  // between the survivors
  EXPECT_EQ(queue.PopMin(), 4);
  EXPECT_EQ(queue.PopMin(), 3);
}

TEST(EventQueueTest, BulkRandomPushesPopInKeyOrder) {
  BinaryHeapQueue<int> queue;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    queue.Push(SimTime::FromSeconds(rng.Uniform(0.0, 50.0)), i);
  }
  double last_time = -1.0;
  int pops = 0;
  while (!queue.empty()) {
    SimTime at;
    queue.PopMin(&at);
    EXPECT_GE(at.seconds(), last_time);
    last_time = at.seconds();
    ++pops;
  }
  EXPECT_EQ(pops, 20000);
}

TEST(EventQueueTest, TieStormPopsInTimeSequenceOrder) {
  // Every worker starting at t=0 and BSP barriers releasing together put
  // thousands of events on one timestamp. 10^5 events over 8 distinct
  // timestamps, pushed in batches between pops (never before the last
  // popped time), must pop in exact (time, sequence) order — checked
  // against an ordered set of the same keys.
  constexpr int kBatches = 100;
  constexpr int kBatchSize = 1000;
  constexpr int kTimestamps = 8;
  BinaryHeapQueue<int> queue;
  std::set<std::pair<double, int>> reference;
  Rng rng(BaseSeed());
  int next_id = 0;
  int floor_slot = 0;  // index of the last popped timestamp
  std::pair<double, int> last_popped{-1.0, -1};
  const auto pop_one = [&] {
    ASSERT_FALSE(reference.empty());
    const std::pair<double, int> want = *reference.begin();
    reference.erase(reference.begin());
    SimTime at;
    const int id = queue.PopMin(&at);
    ASSERT_EQ(std::make_pair(at.seconds(), id), want);
    ASSERT_LT(last_popped, want);
    last_popped = want;
    floor_slot = static_cast<int>(want.first * 2.0);
  };
  for (int batch = 0; batch < kBatches; ++batch) {
    for (int i = 0; i < kBatchSize; ++i) {
      const int slot =
          floor_slot + static_cast<int>(rng.Index(kTimestamps - floor_slot));
      const double time = 0.5 * slot;
      queue.Push(SimTime::FromSeconds(time), next_id);
      reference.emplace(time, next_id);
      ++next_id;
    }
    for (int i = 0; i < kBatchSize / 2; ++i) {
      pop_one();
      if (HasFatalFailure()) return;
    }
  }
  while (!reference.empty()) {
    pop_one();
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(next_id, kBatches * kBatchSize);
}

// --- payload lifetime under EventFn payloads (ASan-backed) -------------------

TEST(EventQueueTest, PopDuringCallbackPushStormIsSafe) {
  // The lifetime rule the Simulator relies on: the payload is moved out
  // before the caller invokes it, so a callback pushing enough events to
  // grow (and relocate) the entry vector is safe. ASan turns a violation
  // into a hard failure.
  BinaryHeapQueue<EventFn> queue;
  int fired = 0;
  queue.Push(SimTime::FromSeconds(1.0), [&fired, &queue] {
    ++fired;
    for (int i = 0; i < 64; ++i) {
      queue.Push(SimTime::FromSeconds(2.0 + i), [&fired] { ++fired; });
    }
  });
  EventFn first = queue.PopMin();
  first();  // grows the heap from inside the "event"
  EXPECT_EQ(fired, 1);
  while (!queue.empty()) {
    EventFn fn = queue.PopMin();
    fn();
  }
  EXPECT_EQ(fired, 65);
}

TEST(EventQueueTest, TeardownDestroysBoxedPayloads) {
  // Closures above EventFn's inline budget are heap-boxed; destroying a
  // non-empty queue must free every box (ASan catches leaks and
  // double-frees).
  auto token = std::make_shared<int>(42);
  struct Big {
    std::shared_ptr<int> token;
    char pad[128];
  };
  static_assert(sizeof(Big) > EventFn::kInlineBytes);
  {
    BinaryHeapQueue<EventFn> queue;
    for (int i = 0; i < 3; ++i) {
      queue.Push(SimTime::FromSeconds(1.0 + i), [big = Big{token, {}}] {
        FAIL() << "never-popped event fired";
      });
    }
    EXPECT_EQ(token.use_count(), 4);
  }
  EXPECT_EQ(token.use_count(), 1) << "teardown must destroy pending payloads";
}

}  // namespace
}  // namespace specsync
