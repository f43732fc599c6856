// Tuner replay equivalence battery (DESIGN.md §12).
//
// The Adaptive tuner evaluates Algorithm 1 with an incremental sweep (sorted
// candidate thresholds, per-push binary search, saturation pruning). The
// literal Algorithm-1 argmax — a loop over CandidateDeltas calling
// EstimateImprovement (Eq. 7) per candidate — lives here as the reference.
// Their contract is bit-identity: the same F̃ value for every candidate and
// the same per-epoch ABORT_TIME/ABORT_RATE decision, down to the last
// floating-point bit.
//
// Timelines are generated on a coarse binary grid (multiples of 1/8 s, all
// exactly representable) so window edges frequently land *exactly* on push
// times — the `time <= pull + Δ` boundary where an off-by-one in the
// incremental bucketing would first diverge. On mismatch the harness shrinks
// the push timeline to a 1-minimal counterexample and prints it. A
// scheduler-driven check feeds the tuner and the reference every epoch of a
// long randomized protocol run, so the inputs the scheduler really builds
// (trimmed history, EWMA spans, pulls after aborts) are covered too.
//
// A planted-bug check rounds out the battery: a deliberately wrong prune
// (dropping the saturation candidate itself) must change a decision on a
// crafted timeline — proof the equivalence tests have teeth.
//
// Timelines are seeded; set SPECSYNC_PROPERTY_SEED to reproduce or explore.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sim_time.h"
#include "core/adaptive_tuner.h"
#include "core/scheduler.h"
#include "sim/simulator.h"

namespace specsync {
namespace {

std::uint64_t BaseSeed() {
  if (const char* env = std::getenv("SPECSYNC_PROPERTY_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260808;
}

// --- timelines ---------------------------------------------------------------

constexpr double kGrid = 0.125;  // exactly representable; boundary-friendly

TuningInputs GenerateInputs(std::uint64_t seed) {
  Rng rng(seed);
  TuningInputs inputs;
  inputs.num_workers = 2 + rng.Index(5);  // 2..6
  inputs.finished_epoch = 1;
  inputs.iteration_span.resize(inputs.num_workers);
  inputs.last_pull.resize(inputs.num_workers);
  for (std::size_t i = 0; i < inputs.num_workers; ++i) {
    inputs.iteration_span[i] =
        Duration::Seconds(kGrid * static_cast<double>(2 + rng.Index(30)));
    if (rng.Index(8) != 0) {  // 1-in-8 workers saw no pull this epoch
      inputs.last_pull[i] = SimTime::FromSeconds(
          kGrid * static_cast<double>(rng.Index(40)));
    }
  }
  const std::size_t num_pushes = 2 + rng.Index(60);
  double t = 0.0;
  for (std::size_t p = 0; p < num_pushes; ++p) {
    t += kGrid * static_cast<double>(rng.Index(8));  // 0 ⇒ duplicate times
    inputs.pushes.emplace_back(SimTime::FromSeconds(t),
                               static_cast<WorkerId>(
                                   rng.Index(inputs.num_workers)));
  }
  inputs.epoch_begin = SimTime::Zero();
  inputs.epoch_end = SimTime::FromSeconds(t + 1.0);
  return inputs;
}

std::string FormatInputs(const TuningInputs& inputs) {
  std::ostringstream out;
  out << "workers=" << inputs.num_workers << " spans=[";
  for (Duration s : inputs.iteration_span) out << s.seconds() << ' ';
  out << "] pulls=[";
  for (const auto& pull : inputs.last_pull) {
    if (pull.has_value()) {
      out << pull->seconds() << ' ';
    } else {
      out << "- ";
    }
  }
  out << "] pushes:";
  for (const auto& [time, worker] : inputs.pushes) {
    out << " (" << time.seconds() << ",w" << worker << ')';
  }
  return out.str();
}

// --- the reference -----------------------------------------------------------

// Algorithm 1 as written: every candidate Δ evaluated by Eq. 7, first maximum
// wins, then line 7's ABORT_RATE (or the per-worker Γ_i of Sec. IV-B).
SpeculationParams ReferenceOnEpochEnd(const AdaptiveTunerConfig& config,
                                      const TuningInputs& inputs) {
  if (inputs.num_workers < 2 || inputs.pushes.size() < 2) return {};
  const Duration mean_span = MeanSpan(inputs);
  Duration best_delta = Duration::Zero();
  double best_value = 0.0;
  for (Duration delta : AdaptiveTuner::CandidateDeltas(
           inputs, mean_span * config.max_delta_spans,
           config.max_candidates)) {
    const double value =
        AdaptiveTuner::EstimateImprovement(inputs, delta, config.loss_weight);
    if (value > best_value) {
      best_value = value;
      best_delta = delta;
    }
  }
  if (best_delta == Duration::Zero()) return {};
  SpeculationParams params;
  params.abort_time = best_delta;
  const double m = static_cast<double>(inputs.num_workers);
  params.abort_rate = best_delta / mean_span * (m - 1.0) / m;
  if (config.per_worker_rate) {
    for (Duration span : inputs.iteration_span) {
      params.per_worker_rate.push_back(best_delta / span * (m - 1.0) / m);
    }
  }
  return params;
}

std::optional<std::string> CompareDecisions(const SpeculationParams& got,
                                            const SpeculationParams& want) {
  if (got.abort_time.seconds() == want.abort_time.seconds() &&
      got.abort_rate == want.abort_rate &&
      got.per_worker_rate == want.per_worker_rate) {
    return std::nullopt;
  }
  std::ostringstream msg;
  msg << "decision mismatch: tuner (ABORT_TIME " << got.abort_time.seconds()
      << ", rate " << got.abort_rate << ") != reference (ABORT_TIME "
      << want.abort_time.seconds() << ", rate " << want.abort_rate << ')';
  return msg.str();
}

// --- equivalence checks ------------------------------------------------------

// Bitwise comparison of the tuner and the reference on one timeline. Returns
// a failure description, or nullopt when equivalent.
std::optional<std::string> CheckEquivalence(const TuningInputs& inputs,
                                            double loss_weight,
                                            std::size_t max_candidates,
                                            bool per_worker_rate) {
  if (inputs.pushes.size() < 2 || inputs.num_workers < 2) return std::nullopt;
  const Duration max_delta = MeanSpan(inputs);
  const std::vector<Duration> candidates =
      AdaptiveTuner::CandidateDeltas(inputs, max_delta, max_candidates);
  // Per-candidate F̃ values must match the reference evaluation bitwise.
  const std::vector<double> values =
      AdaptiveTuner::EvaluateCandidates(inputs, candidates, loss_weight);
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const double want =
        AdaptiveTuner::EstimateImprovement(inputs, candidates[c], loss_weight);
    if (values[c] != want) {
      std::ostringstream msg;
      msg << "candidate " << c << " (delta " << candidates[c].seconds()
          << "): incremental " << values[c] << " != reference " << want;
      return msg.str();
    }
  }
  // End-to-end decisions must match bitwise too (covers the prune and the
  // argmax tie-break).
  AdaptiveTunerConfig config;
  config.loss_weight = loss_weight;
  config.max_candidates = max_candidates;
  config.per_worker_rate = per_worker_rate;
  AdaptiveTuner tuner(config);
  return CompareDecisions(tuner.OnEpochEnd(inputs),
                          ReferenceOnEpochEnd(config, inputs));
}

// Greedy ddmin over the push timeline: delete the largest chunk that keeps
// the engines disagreeing, halving the chunk until single pushes survive.
TuningInputs ShrinkPushes(TuningInputs inputs, double loss_weight,
                          std::size_t max_candidates, bool per_worker_rate) {
  const auto still_fails = [&](const TuningInputs& candidate) {
    return CheckEquivalence(candidate, loss_weight, max_candidates,
                            per_worker_rate)
        .has_value();
  };
  std::size_t chunk = std::max<std::size_t>(1, inputs.pushes.size() / 2);
  for (;;) {
    bool removed_any = false;
    std::size_t offset = 0;
    while (offset < inputs.pushes.size()) {
      TuningInputs candidate = inputs;
      const std::size_t end =
          std::min(offset + chunk, candidate.pushes.size());
      candidate.pushes.erase(candidate.pushes.begin() + offset,
                             candidate.pushes.begin() + end);
      if (still_fails(candidate)) {
        inputs = std::move(candidate);
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
  return inputs;
}

void RunTrials(std::size_t trials, double loss_weight,
               std::size_t max_candidates, bool per_worker_rate) {
  const std::uint64_t base = BaseSeed();
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = base + trial * 6364136223846793005ULL;
    const TuningInputs inputs = GenerateInputs(seed);
    const auto failure =
        CheckEquivalence(inputs, loss_weight, max_candidates, per_worker_rate);
    if (failure.has_value()) {
      const TuningInputs minimal =
          ShrinkPushes(inputs, loss_weight, max_candidates, per_worker_rate);
      FAIL() << "seed " << seed << " (trial " << trial << "): " << *failure
             << "\nminimal counterexample (" << minimal.pushes.size()
             << " pushes): " << FormatInputs(minimal);
    }
  }
}

TEST(TunerEquivalence, RandomTimelinesPaperObjective) {
  RunTrials(300, /*loss_weight=*/1.0, /*max_candidates=*/4096,
            /*per_worker_rate=*/false);
}

TEST(TunerEquivalence, RandomTimelinesWeightedLossPerWorkerRates) {
  RunTrials(300, /*loss_weight=*/0.3, /*max_candidates=*/4096,
            /*per_worker_rate=*/true);
}

TEST(TunerEquivalence, RandomTimelinesStridedCandidateCap) {
  // A small cap forces the strided-subset path; the sweep must still match.
  RunTrials(200, /*loss_weight=*/1.0, /*max_candidates=*/7,
            /*per_worker_rate=*/false);
}

// --- scripted boundary timelines ---------------------------------------------

TuningInputs ScriptedBase() {
  TuningInputs inputs;
  inputs.num_workers = 3;
  inputs.finished_epoch = 2;
  inputs.epoch_begin = SimTime::Zero();
  inputs.epoch_end = SimTime::FromSeconds(10.0);
  inputs.iteration_span = {Duration::Seconds(2.0), Duration::Seconds(1.0),
                           Duration::Seconds(4.0)};
  inputs.last_pull = {SimTime::FromSeconds(1.0), SimTime::FromSeconds(2.0),
                      std::nullopt};  // worker 2: no pull this epoch
  return inputs;
}

TEST(TunerEquivalence, ScriptedWindowEdgeExactlyOnPush) {
  // Pushes at pull + Δ exactly: the closed right edge must be included by
  // both engines (the reference uses `<=`; the incremental bucketing must
  // bucket the push into that candidate, not the next).
  TuningInputs inputs = ScriptedBase();
  inputs.pushes = {{SimTime::FromSeconds(1.0), 1},   // == w0 pull: excluded
                   {SimTime::FromSeconds(1.5), 1},
                   {SimTime::FromSeconds(2.5), 0},   // == w0 pull + 1.5
                   {SimTime::FromSeconds(2.5), 1},   // duplicate time
                   {SimTime::FromSeconds(3.0), 2}};  // == w1 pull + 1.0
  EXPECT_EQ(CheckEquivalence(inputs, 1.0, 4096, false), std::nullopt);
  EXPECT_EQ(CheckEquivalence(inputs, 0.3, 4096, true), std::nullopt);
}

TEST(TunerEquivalence, ScriptedSinglePusherAndNoPullWorkers) {
  TuningInputs inputs = ScriptedBase();
  inputs.last_pull = {SimTime::FromSeconds(1.0), std::nullopt, std::nullopt};
  inputs.pushes = {{SimTime::FromSeconds(1.5), 0},
                   {SimTime::FromSeconds(2.0), 0},
                   {SimTime::FromSeconds(2.25), 0}};
  EXPECT_EQ(CheckEquivalence(inputs, 1.0, 4096, false), std::nullopt);
}

// --- scheduler-driven epochs -------------------------------------------------

// What the checking policy saw over one run.
struct EpochLog {
  std::size_t epochs = 0;
  std::size_t enabled = 0;  // epochs whose decision turned speculation on
  std::vector<std::string> mismatches;
};

// A SpeculationPolicy that runs the production tuner and the reference on
// every epoch's TuningInputs, logs any difference, and hands the scheduler
// the tuner's decision.
class ReferenceCheckingPolicy final : public SpeculationPolicy {
 public:
  ReferenceCheckingPolicy(AdaptiveTunerConfig config, EpochLog* log)
      : config_(config), tuner_(config), log_(log) {}

  std::string name() const override { return "adaptive+reference"; }

  SpeculationParams OnEpochEnd(const TuningInputs& inputs) override {
    const SpeculationParams got = tuner_.OnEpochEnd(inputs);
    ++log_->epochs;
    if (got.enabled()) ++log_->enabled;
    if (auto mismatch =
            CompareDecisions(got, ReferenceOnEpochEnd(config_, inputs))) {
      log_->mismatches.push_back("epoch " +
                                 std::to_string(inputs.finished_epoch) + ": " +
                                 *mismatch + "\n  " + FormatInputs(inputs));
    }
    return got;
  }

 private:
  AdaptiveTunerConfig config_;
  AdaptiveTuner tuner_;
  EpochLog* log_;
};

// A closed-loop protocol run on the DES: each worker pulls, computes for a
// random grid-multiple span, pushes (HandleNotify) and starts over; a check
// timer that returns true aborts the worker's running iteration and restarts
// it on a fresh pull, as the sim cluster does. Every epoch boundary retunes
// through the checking policy.
SchedulerStats DriveRandomTimeline(std::uint64_t seed,
                                   AdaptiveTunerConfig config,
                                   EpochLog* log) {
  Rng rng(seed);
  const std::size_t workers = 4 + rng.Index(9);  // 4..12
  std::vector<double> base_span(workers);
  for (double& span : base_span) {
    span = kGrid * static_cast<double>(8 + rng.Index(24));
  }
  SchedulerConfig scheduler_config;
  scheduler_config.num_workers = workers;
  scheduler_config.default_span = Duration::Seconds(2.0);
  SpecSyncScheduler scheduler(
      scheduler_config,
      std::make_unique<ReferenceCheckingPolicy>(config, log));

  Simulator sim;
  std::vector<std::uint64_t> generation(workers, 0);
  std::vector<IterationId> iteration(workers, 0);
  std::function<void(WorkerId)> start = [&](WorkerId w) {
    const std::uint64_t gen = ++generation[w];
    scheduler.HandlePull(w, sim.now());
    // Mostly near the worker's base span, with occasional stragglers; all
    // multiples of the grid so pushes collide with window edges.
    double span = base_span[w] + kGrid * static_cast<double>(rng.Index(9));
    if (rng.Index(20) == 0) span *= 3.0;
    sim.ScheduleAfter(Duration::Seconds(span), [&, w, gen] {
      if (generation[w] != gen) return;  // aborted meanwhile
      const auto request = scheduler.HandleNotify(w, iteration[w]++, sim.now());
      start(w);
      if (!request.has_value()) return;
      sim.ScheduleAfter(request->delay, [&, w, token = request->token] {
        if (scheduler.HandleCheckTimer(w, token, sim.now())) start(w);
      });
    });
  };
  for (WorkerId w = 0; w < workers; ++w) {
    // Staggered starts on the grid; some workers share a start time.
    sim.ScheduleAt(SimTime::FromSeconds(kGrid * static_cast<double>(
                       rng.Index(16))),
                   [&, w] { start(w); });
  }
  sim.Run(SimTime::FromSeconds(1500.0));
  return scheduler.stats();
}

TEST(TunerEquivalence, SchedulerDrivenEpochsMatchReference) {
  // Four tuner configurations over several randomized timelines: the
  // paper's objective, a weighted loss with per-worker rates, a small
  // candidate cap that forces the strided subset, and a zero loss weight,
  // whose F̃ is a step function with many exactly tied maxima — the case
  // that pins the first-maximum tie-break.
  AdaptiveTunerConfig paper;
  AdaptiveTunerConfig weighted;
  weighted.loss_weight = 0.3;
  weighted.per_worker_rate = true;
  AdaptiveTunerConfig capped;
  capped.max_candidates = 7;
  AdaptiveTunerConfig gain_only;
  gain_only.loss_weight = 0.0;
  const std::uint64_t base = BaseSeed();
  std::size_t trial = 0;
  for (const AdaptiveTunerConfig& config : {paper, weighted, capped, gain_only}) {
    for (int run = 0; run < 3; ++run, ++trial) {
      const std::uint64_t seed = base + trial * 7919ULL;
      EpochLog log;
      const SchedulerStats stats = DriveRandomTimeline(seed, config, &log);
      EXPECT_GT(log.epochs, 100u) << "seed " << seed;
      EXPECT_EQ(stats.retunes, log.epochs) << "seed " << seed;
      EXPECT_GT(log.enabled, 0u)
          << "seed " << seed << ": the tuner never enabled speculation";
      EXPECT_GT(stats.resyncs_issued, 0u) << "seed " << seed;
      ASSERT_TRUE(log.mismatches.empty())
          << "seed " << seed << " (" << log.mismatches.size() << " of "
          << log.epochs << " epochs differ); first: " << log.mismatches[0];
    }
  }
}

// --- the planted bug ---------------------------------------------------------

TEST(TunerEquivalence, WrongPruneIsCaught) {
  // Crafted so the argmax lands exactly on the saturation candidate: worker
  // 1 pushes at 1,2,3,4; spans are huge so the loss term is negligible and
  // the widest window (Δ = 3) wins. A prune that drops the saturation
  // candidate itself — evaluating [0, saturation) instead of
  // [0, saturation] — must change the decision, proving the equivalence
  // battery detects an off-by-one prune.
  TuningInputs inputs;
  inputs.num_workers = 2;
  inputs.finished_epoch = 1;
  inputs.epoch_begin = SimTime::Zero();
  inputs.epoch_end = SimTime::FromSeconds(10.0);
  inputs.iteration_span = {Duration::Seconds(100.0), Duration::Seconds(100.0)};
  inputs.last_pull = {SimTime::FromSeconds(1.25), SimTime::FromSeconds(1.5)};
  inputs.pushes = {{SimTime::FromSeconds(1.0), 1},
                   {SimTime::FromSeconds(2.0), 1},
                   {SimTime::FromSeconds(3.0), 1},
                   {SimTime::FromSeconds(4.0), 1}};

  const std::vector<Duration> candidates =
      AdaptiveTuner::CandidateDeltas(inputs, MeanSpan(inputs), 4096);
  ASSERT_EQ(candidates.size(), 3u);  // {1, 2, 3}
  const std::size_t saturation =
      AdaptiveTuner::SaturationIndex(inputs, candidates);
  ASSERT_EQ(saturation, 2u);  // every window covers t_last=4 from Δ=3 on

  // The correct engines agree, and pick the saturation candidate.
  ASSERT_EQ(CheckEquivalence(inputs, 1.0, 4096, false), std::nullopt);
  AdaptiveTuner tuner{AdaptiveTunerConfig{}};
  EXPECT_EQ(tuner.OnEpochEnd(inputs).abort_time.seconds(), 3.0);

  // The buggy prune — same sweep, one candidate short — decides differently.
  const std::vector<double> values =
      AdaptiveTuner::EvaluateCandidates(inputs, candidates, 1.0);
  Duration buggy_best = Duration::Zero();
  double buggy_value = 0.0;
  for (std::size_t c = 0; c < saturation; ++c) {  // BUG: excludes saturation
    if (values[c] > buggy_value) {
      buggy_value = values[c];
      buggy_best = candidates[c];
    }
  }
  EXPECT_NE(buggy_best.seconds(), 3.0)
      << "the planted wrong prune went undetected — the battery has no teeth";
}

TEST(TunerEquivalence, SaturationPruneNeverMovesTheArgmax) {
  // Direct property check of the prune invariant on random timelines: the
  // full argmax always lies within [0, SaturationIndex].
  const std::uint64_t base = BaseSeed();
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const TuningInputs inputs = GenerateInputs(base + trial * 999983ULL);
    const std::vector<Duration> candidates =
        AdaptiveTuner::CandidateDeltas(inputs, MeanSpan(inputs), 4096);
    if (candidates.empty()) continue;
    const std::vector<double> values =
        AdaptiveTuner::EvaluateCandidates(inputs, candidates, 1.0);
    std::size_t argmax = candidates.size();  // = "none positive"
    double best = 0.0;
    for (std::size_t c = 0; c < values.size(); ++c) {
      if (values[c] > best) {
        best = values[c];
        argmax = c;
      }
    }
    if (argmax == candidates.size()) continue;
    EXPECT_LE(argmax, AdaptiveTuner::SaturationIndex(inputs, candidates))
        << FormatInputs(inputs);
  }
}

}  // namespace
}  // namespace specsync
