// One measured or traced repetition of one benchmark workload.
//
//   perfbench_runner --workload sim-mf-40 --seed 7 --mode measure
//   perfbench_runner --workload rt-tcp-mf-2 --seed 7 --mode trace
//       --trace-out out.json
//
// measure: builds the workload kSetupReps times (timing each build and
//   keeping the last), runs the engine once with observability off, checks
//   the outputs and prints one JSON object with the raw figures.
// trace:   the same set-up and run with an obs::ObsContext attached and the
//   model wrapped in TimedModel, preceded on the sim workloads by an untraced
//   run whose trace digest must equal the traced run's. Prints the per-layer
//   figures and writes a Chrome trace of the benchmark's own spans. Every
//   instrument the workload's layers record must hold samples, so a renamed
//   or dropped instrument fails the run instead of reading 0.
//
// perfbench/run.py drives repetitions of this program; see README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "obs/obs.h"
#include "reference.h"
#include "runtime/runtime_cluster.h"
#include "sim/cluster.h"
#include "sim/network.h"
#include "timed_model.h"
#include "trace/pap_analysis.h"
#include "trace/trace.h"
#include "trace/transfer.h"

namespace specsync::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workload definitions ----------------------------------------------------

enum class Engine { kSim, kRuntime };

// Both workloads train the MF task (harness MakeMfWorkload at scale 1.0)
// with SpecSync-Adaptive on ASP. README.md gives the reasons for each shape.
struct WorkloadSpec {
  std::string name;
  Engine engine;
  std::size_t workers;
  std::size_t shards;
  double horizon_s = 0.0;      // sim: virtual seconds
  std::size_t iterations = 0;  // runtime: per worker
};

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"sim-mf-40", Engine::kSim, 40, 4, 400.0, 0},
      {"rt-tcp-mf-2", Engine::kRuntime, 2, 4, 0.0, 3000},
  };
  return specs;
}

// The final loss must be at most the first evaluation's divided by this.
constexpr double kMinLossFall = 4.0;

// Set-up builds per repetition; their median is steadier than one build.
constexpr std::size_t kSetupReps = 9;

// Server-side elementwise gradient clip of the sim workload (the MF workload
// itself leaves it off; the repo's CIFAR and ImageNet workloads use 5).
// Unclipped, SpecSync-Adaptive MF at 40 workers diverges to NaN within 400
// virtual s on up to 0.5% of sub-seeds; see README.md.
constexpr double kSimSgdClip = 5.0;

ExperimentConfig SimConfig(const WorkloadSpec& spec, std::uint64_t seed,
                           obs::ObsContext* obs) {
  ExperimentConfig config;
  config.cluster = ClusterSpec::Homogeneous(spec.workers);
  config.cluster.num_servers = spec.shards;
  config.scheme = SchemeSpec::Adaptive();
  config.max_time = SimTime::FromSeconds(spec.horizon_s);
  config.stop_on_convergence = false;
  config.seed = seed;
  config.obs = obs;
  return config;
}

RuntimeConfig RtConfig(const WorkloadSpec& spec, const Workload& workload,
                       std::uint64_t seed, obs::ObsContext* obs) {
  RuntimeConfig config;
  config.num_workers = spec.workers;
  config.num_servers = spec.shards;
  config.iterations_per_worker = spec.iterations;
  config.batch_size = workload.batch_size;
  config.adaptive = true;
  config.sgd_clip = workload.sgd_clip;
  config.seed = seed;
  config.transport = RuntimeTransport::kTcpLoopback;
  config.final_eval_samples = workload.eval_subsample;
  config.obs = obs;
  return config;
}

// --- output ------------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

class Report {
 public:
  void Set(const std::string& key, double v) { fields_[key] = Num(v); }
  void SetString(const std::string& key, const std::string& v) {
    fields_[key] = "\"" + v + "\"";
  }
  void SetList(const std::string& key, const std::vector<double>& values) {
    std::string s = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) s += ",";
      s += Num(values[i]);
    }
    fields_[key] = s + "]";
  }
  void Layer(const std::string& name, double v) { layers_[name] = v; }
  void Expect(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
  }
  void ExpectNear(const std::string& name, double got, double want,
                  double rel_tol) {
    const bool ok = std::isfinite(got) && std::isfinite(want) &&
                    std::fabs(got - want) <= rel_tol * std::fabs(want);
    Expect(name, ok, "got " + Num(got) + " want " + Num(want));
  }
  void ExpectEq(const std::string& name, std::uint64_t got,
                std::uint64_t want) {
    Expect(name, got == want,
           "got " + std::to_string(got) + " want " + std::to_string(want));
  }
  bool all_ok() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const Check& c) { return c.ok; });
  }

  void Print(std::ostream& os) const {
    os << "{";
    for (const auto& [key, value] : fields_) {
      os << "\"" << key << "\":" << value << ",";
    }
    os << "\"layers\":{";
    bool first = true;
    for (const auto& [name, value] : layers_) {
      os << (first ? "" : ",") << "\"" << name << "\":" << Num(value);
      first = false;
    }
    os << "},\"checks\":[";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      const Check& c = checks_[i];
      os << (i > 0 ? "," : "") << "{\"name\":\"" << c.name
         << "\",\"ok\":" << (c.ok ? "true" : "false") << ",\"detail\":\""
         << c.detail << "\"}";
    }
    os << "]}\n";
  }

 private:
  std::map<std::string, std::string> fields_;
  std::map<std::string, double> layers_;
  std::vector<Check> checks_;
};

// --- benchmark spans ---------------------------------------------------------

// The benchmark's own timeline (set-up, run, evaluation), on wall seconds
// since the process started. Kept apart from the engine's ObsContext, whose
// sim spans are on virtual time.
class Spans {
 public:
  Spans() : start_(Clock::now()) {}
  void Add(const std::string& name, Clock::time_point begin,
           Clock::time_point end) {
    recorder_.AddSpan(name, "perfbench", 0,
                      SimTime::FromSeconds(SecondsBetween(start_, begin)),
                      SimTime::FromSeconds(SecondsBetween(start_, end)));
  }
  bool Write(const std::string& path) const {
    return obs::WriteChromeTraceFile(recorder_, path);
  }

 private:
  Clock::time_point start_;
  obs::SpanRecorder recorder_;
};

// --- output checks -----------------------------------------------------------

// Counts pushes-after-pull (other workers' pushes in (pull, pull + 14 s],
// per 1 s bucket, over pulls whose window ends by the trace end) straight
// from the event lists and compares the per-bucket totals with AnalyzePap's
// per-bucket means.
void CheckPap(const TrainingTrace& trace, Report& report) {
  const PapConfig config;
  const std::size_t buckets = config.num_intervals;
  const double width = config.interval.seconds();
  std::vector<double> totals(buckets, 0.0);
  std::size_t windows = 0;
  for (const PullEvent& pull : trace.pulls()) {
    const double begin = pull.time.seconds();
    const double end = begin + width * static_cast<double>(buckets);
    if (end > trace.end_time().seconds()) continue;
    ++windows;
    for (const PushEvent& push : trace.pushes()) {
      const double t = push.time.seconds();
      if (push.worker == pull.worker || t <= begin || t > end) continue;
      const auto b = static_cast<std::size_t>((t - begin) / width);
      totals[std::min(b, buckets - 1)] += 1.0;
    }
  }
  const PapResult pap = AnalyzePap(trace, config);
  bool ok = windows > 0 && pap.mean_per_interval.size() == buckets;
  double worst = 0.0;
  for (std::size_t k = 0; ok && k < buckets; ++k) {
    const double diff = std::fabs(
        pap.mean_per_interval[k] * static_cast<double>(windows) - totals[k]);
    worst = std::max(worst, diff);
    ok = diff <= 1e-6 * std::max(1.0, totals[k]);
  }
  report.Expect("pap_matches_analysis", ok,
                std::to_string(windows) + " windows, worst diff " + Num(worst));
}

struct SimAccounting {
  std::uint64_t pulls = 0;
  std::uint64_t open = 0;    // iterations still open at the horizon
  std::uint64_t failed = 0;  // started, neither pushed nor aborted nor open
  double staleness_mean = 0.0;
};

// Walks each worker's pulls, pushes and aborts. Every iteration starts with a
// pull and ends in a push or an abort; at most one per worker may still be
// open when the horizon cuts the run. Recomputes each push's missed updates
// from store versions (push version - 1 - version of the worker's latest
// pull) and compares them with the program's.
SimAccounting AccountSim(const TrainingTrace& trace, Report& report) {
  const std::size_t workers = trace.num_workers();
  std::vector<std::uint64_t> pulls(workers), ends(workers);
  std::vector<std::vector<const PullEvent*>> pulls_of(workers);
  for (const PullEvent& e : trace.pulls()) {
    ++pulls[e.worker];
    pulls_of[e.worker].push_back(&e);
  }
  for (const PushEvent& e : trace.pushes()) ++ends[e.worker];
  for (const AbortEvent& e : trace.aborts()) ++ends[e.worker];

  SimAccounting acc;
  for (std::size_t w = 0; w < workers; ++w) {
    acc.pulls += pulls[w];
    if (pulls[w] == ends[w] || pulls[w] == ends[w] + 1) {
      acc.open += pulls[w] - ends[w];
    } else if (pulls[w] > ends[w]) {
      acc.failed += pulls[w] - ends[w] - 1;
    } else {
      acc.failed += ends[w] - pulls[w];
    }
  }

  std::vector<std::size_t> cursor(workers, 0);
  std::uint64_t mismatched = 0;
  double missed_sum = 0.0;
  for (const PushEvent& push : trace.pushes()) {
    const auto& mine = pulls_of[push.worker];
    std::size_t& c = cursor[push.worker];
    while (c + 1 < mine.size() && mine[c + 1]->time < push.time) ++c;
    if (mine.empty() || !(mine[c]->time < push.time) ||
        push.version < mine[c]->version + 1) {
      ++mismatched;
      continue;
    }
    const std::uint64_t missed = push.version - 1 - mine[c]->version;
    missed_sum += static_cast<double>(missed);
    if (missed != push.missed_updates) ++mismatched;
  }
  if (!trace.pushes().empty()) {
    acc.staleness_mean =
        missed_sum / static_cast<double>(trace.pushes().size());
  }
  report.ExpectEq("missed_updates_match_versions", mismatched, 0);
  report.ExpectEq("iterations_end_in_push_or_abort", acc.failed, 0);
  return acc;
}

void CheckSimLedger(const SimResult& sim, std::size_t param_dim,
                    const SimAccounting& acc, Report& report) {
  const TransferAccountant& t = sim.transfers;
  const std::uint64_t full = param_dim * sizeof(double);
  const std::uint64_t workers = sim.trace.num_workers();
  // A pull is recorded when its last shard lands, its bytes as each shard
  // lands: shards of pulls still in flight at the horizon are charged but
  // not recorded, one pull per worker at most.
  const std::uint64_t pull_bytes = t.bytes(TransferCategory::kPullParams);
  report.Expect("pull_bytes_are_pulls_times_dim",
                pull_bytes >= acc.pulls * full &&
                    pull_bytes - acc.pulls * full <= (workers - acc.open) * full,
                std::to_string(pull_bytes) + " B for " +
                    std::to_string(acc.pulls) + " pulls of " +
                    std::to_string(full) + " B");
  // Control messages are charged on arrival. A notify still in flight at
  // the horizon (at most one per worker) is not charged; a re-sync that
  // lands after its iteration already ended is charged but aborts nothing.
  const std::uint64_t notifies =
      t.bytes(TransferCategory::kNotify) / kControlMessageBytes;
  const SchedulerStats& sched = sim.scheduler_stats;
  report.ExpectEq("notify_bytes_are_notifies_received_times_64",
                  t.bytes(TransferCategory::kNotify),
                  sched.notifies_received * kControlMessageBytes);
  report.Expect("notifies_are_pushes_less_in_flight",
                notifies <= sim.total_pushes &&
                    sim.total_pushes - notifies <= workers,
                std::to_string(notifies) + " notifies for " +
                    std::to_string(sim.total_pushes) + " pushes");
  const std::uint64_t resync_bytes = t.bytes(TransferCategory::kReSync);
  report.Expect("resync_bytes_cover_aborts",
                resync_bytes % kControlMessageBytes == 0 &&
                    resync_bytes >= sim.total_aborts * kControlMessageBytes &&
                    resync_bytes <=
                        sched.resyncs_issued * kControlMessageBytes,
                std::to_string(resync_bytes) + " B for " +
                    std::to_string(sim.total_aborts) + " aborts of " +
                    std::to_string(sched.resyncs_issued) + " re-syncs");
}

void CheckLoss(const std::string& what, double first, double program,
               double reference, Report& report) {
  report.Expect(what + "_loss_finite",
                std::isfinite(program) && std::isfinite(first),
                "first " + Num(first) + " end " + Num(program));
  report.ExpectNear(what + "_loss_matches_reference", program, reference,
                    1e-9);
  report.Expect(what + "_loss_falls", program * kMinLossFall <= first,
                "first " + Num(first) + " end " + Num(program) +
                    " must fall by " + Num(kMinLossFall) + "x");
}

// --- measurements ------------------------------------------------------------

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::string trace_out;
};

std::vector<const obs::LatencyHistogram*> Matching(
    const obs::MetricsRegistry& metrics, const std::string& prefix,
    const std::string& suffix) {
  std::vector<const obs::LatencyHistogram*> found;
  for (const auto& [name, hist] : metrics.Histograms()) {
    if (name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      found.push_back(hist);
    }
  }
  return found;
}

double HistSum(const obs::MetricsRegistry& metrics, const std::string& prefix,
               const std::string& suffix) {
  double sum = 0.0;
  for (const auto* hist : Matching(metrics, prefix, suffix)) {
    sum += hist->sum_seconds();
  }
  return sum;
}

// The histograms named prefix*suffix exist and every one holds samples.
void ExpectRecorded(const obs::MetricsRegistry& metrics,
                    const std::string& prefix, const std::string& suffix,
                    Report& report) {
  const auto found = Matching(metrics, prefix, suffix);
  const auto filled = std::count_if(found.begin(), found.end(),
                                    [](const auto* h) { return h->count() > 0; });
  report.Expect("recorded_" + prefix + "*" + suffix,
                !found.empty() && filled == std::ssize(found),
                std::to_string(filled) + " of " + std::to_string(found.size()) +
                    " histograms hold samples");
}

// A counter named prefix* is registered, even if it still reads 0.
void ExpectRegistered(const obs::MetricsRegistry& metrics,
                      const std::string& prefix, Report& report) {
  const auto values = metrics.CounterValues();
  report.Expect("registered_" + prefix + "*",
                std::any_of(values.begin(), values.end(),
                            [&](const auto& c) {
                              return c.first.rfind(prefix, 0) == 0;
                            }),
                std::to_string(values.size()) + " counters");
}

std::uint64_t CounterSum(const obs::MetricsRegistry& metrics,
                         const std::string& prefix) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : metrics.CounterValues()) {
    if (name.rfind(prefix, 0) == 0) sum += value;
  }
  return sum;
}

ModelTotals ModelLayers(const TimedModel& model, Report& report) {
  const ModelTotals totals = model.Totals();
  report.Layer("models.grad_calls", static_cast<double>(totals.grad_calls));
  report.Layer("models.grad_s", totals.grad_s);
  report.Layer("models.eval_s", totals.eval_s);
  if (totals.grad_calls > 0) {
    report.Layer("models.grad_us_per_call",
                 totals.grad_s * 1e6 / static_cast<double>(totals.grad_calls));
  }
  return totals;
}

int RunSim(const WorkloadSpec& spec, const Args& args, Report& report) {
  Spans spans;
  std::vector<double> setup;
  std::optional<Workload> workload;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    workload.reset();
    const auto begin = Clock::now();
    workload = MakeMfWorkload(args.seed);
    const auto end = Clock::now();
    setup.push_back(SecondsBetween(begin, end));
    spans.Add("setup.workload_build", begin, end);
  }
  report.SetList("setup_s", setup);
  workload->sgd_clip = kSimSgdClip;

  std::optional<std::uint64_t> untraced_digest;
  obs::ObsContext obs;
  std::shared_ptr<TimedModel> timed;
  if (args.trace) {
    // Same engine run without instruments: its digest pins the traced one.
    untraced_digest =
        TraceDigest(RunExperiment(*workload, SimConfig(spec, args.seed, nullptr))
                        .sim.trace);
    timed = std::make_shared<TimedModel>(workload->model);
    workload->model = timed;
  }

  const auto run_begin = Clock::now();
  const ExperimentResult result = RunExperiment(
      *workload, SimConfig(spec, args.seed, args.trace ? &obs : nullptr));
  const auto run_end = Clock::now();
  // Before the checks allocate their own copies of the data.
  const double peak_rss_mb = PeakRssMiB();
  spans.Add("run", run_begin, run_end);
  const double run_s = SecondsBetween(run_begin, run_end);
  const SimResult& sim = result.sim;

  const auto eval_begin = Clock::now();
  const RatingsDataset data = RegenerateMfData(args.seed);
  const std::size_t dim = workload->model->param_dim();
  report.ExpectEq("regenerated_dataset_size", data.size(),
                  workload->model->dataset_size());
  report.ExpectEq("final_weights_dim", sim.final_weights.size(), dim);
  const double first =
      sim.trace.losses().empty() ? NAN : sim.trace.losses().front().loss;
  CheckLoss("sim", first, result.final_loss,
            MfLoss(data, sim.final_weights, workload->eval_subsample), report);
  const SimAccounting acc = AccountSim(sim.trace, report);
  CheckSimLedger(sim, dim, acc, report);
  CheckPap(sim.trace, report);
  const std::uint64_t digest = TraceDigest(sim.trace);
  if (untraced_digest) {
    report.ExpectEq("traced_digest_equals_untraced", digest, *untraced_digest);
  }
  spans.Add("evaluation", eval_begin, Clock::now());

  report.Set("run_s", run_s);
  report.Set("pushes", static_cast<double>(sim.total_pushes));
  report.Set("aborts", static_cast<double>(sim.total_aborts));
  report.Set("attempted", static_cast<double>(acc.pulls));
  report.Set("failed", static_cast<double>(acc.failed));
  report.Set("open_at_horizon", static_cast<double>(acc.open));
  report.Set("loss_first", first);
  report.Set("loss_end", result.final_loss);
  report.SetString("digest", std::to_string(digest));

  if (!args.trace) {
    report.Set("peak_rss_mb", peak_rss_mb);
    return 0;
  }
  ExpectRecorded(obs.metrics, "ps.shard", ".lock_wait_s", report);
  ExpectRecorded(obs.metrics, "ps.shard", ".lock_hold_s", report);
  report.Layer("harness.workload_build_s",
               *std::min_element(setup.begin(), setup.end()));
  const ModelTotals totals = ModelLayers(*timed, report);
  report.Layer("sim.events", static_cast<double>(sim.sim_events));
  report.Layer("sim.events_per_s", static_cast<double>(sim.sim_events) / run_s);
  report.Layer("sim.engine_s", run_s - totals.grad_s - totals.eval_s);
  report.Layer("core.retunes", static_cast<double>(sim.scheduler_stats.retunes));
  report.Layer("core.resyncs",
               static_cast<double>(sim.scheduler_stats.resyncs_issued));
  report.Layer("core.useful_iteration_ratio",
               static_cast<double>(sim.total_pushes) /
                   static_cast<double>(acc.pulls));
  report.Layer("core.staleness_mean", acc.staleness_mean);
  report.Layer("core.wasted_compute_s",
               sim.trace.total_wasted_compute().seconds());
  const double pushes = static_cast<double>(sim.total_pushes);
  const TransferAccountant& t = sim.transfers;
  report.Layer("trace.pull_bytes_per_push",
               static_cast<double>(t.bytes(TransferCategory::kPullParams)) /
                   pushes);
  report.Layer("trace.push_bytes_per_push",
               static_cast<double>(t.bytes(TransferCategory::kPushGrads)) /
                   pushes);
  report.Layer("trace.control_bytes_per_push",
               static_cast<double>(t.bytes(TransferCategory::kNotify) +
                                   t.bytes(TransferCategory::kReSync) +
                                   t.bytes(TransferCategory::kControl)) /
                   pushes);
  report.Layer("ps.lock_wait_s", HistSum(obs.metrics, "ps.shard", ".lock_wait_s"));
  report.Layer("ps.lock_hold_s", HistSum(obs.metrics, "ps.shard", ".lock_hold_s"));
  report.Layer("obs.traced_pushes_per_s", pushes / run_s);
  if (!args.trace_out.empty() && !spans.Write(args.trace_out)) return 2;
  return 0;
}

int RunRuntime(const WorkloadSpec& spec, const Args& args, Report& report) {
  Spans spans;
  obs::ObsContext obs;
  obs::ObsContext* attached = args.trace ? &obs : nullptr;
  std::vector<double> setup, workload_build, engine_build;
  std::unique_ptr<RuntimeCluster> cluster;
  std::optional<Workload> workload;
  std::shared_ptr<TimedModel> timed;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();
    workload.reset();
    // The last build is the one that runs; only it gets the instruments.
    const bool last = rep + 1 == kSetupReps;
    const auto begin = Clock::now();
    workload = MakeMfWorkload(args.seed);
    const auto built = Clock::now();
    if (args.trace && last) {
      timed = std::make_shared<TimedModel>(workload->model);
      workload->model = timed;
    }
    const auto engine_begin = Clock::now();
    cluster = std::make_unique<RuntimeCluster>(
        workload->model, workload->schedule,
        RtConfig(spec, *workload, args.seed, last ? attached : nullptr));
    const auto end = Clock::now();
    setup.push_back(SecondsBetween(begin, built) +
                    SecondsBetween(engine_begin, end));
    workload_build.push_back(SecondsBetween(begin, built));
    engine_build.push_back(SecondsBetween(engine_begin, end));
    spans.Add("setup.workload_build", begin, built);
    spans.Add("setup.engine_build", engine_begin, end);
  }
  report.SetList("setup_s", setup);

  const auto run_begin = Clock::now();
  const RuntimeResult result = cluster->Run();
  const auto run_end = Clock::now();
  // Before the checks allocate their own copies of the data.
  const double peak_rss_mb = PeakRssMiB();
  spans.Add("run", run_begin, run_end);
  const double run_s = SecondsBetween(run_begin, run_end);
  cluster.reset();

  const auto eval_begin = Clock::now();
  const RatingsDataset data = RegenerateMfData(args.seed);
  const std::size_t dim = workload->model->param_dim();
  report.ExpectEq("regenerated_dataset_size", data.size(),
                  workload->model->dataset_size());
  report.ExpectEq("final_weights_dim", result.final_weights.size(), dim);
  // The store initializes from Rng(seed) (ParameterServer::Initialize); the
  // loss of those weights is the run's first evaluation.
  std::vector<double> init(dim);
  Rng init_rng(args.seed);
  workload->model->InitParams(init, init_rng);
  CheckLoss("runtime", MfLoss(data, init, workload->eval_subsample),
            result.final_loss,
            MfLoss(data, result.final_weights, workload->eval_subsample),
            report);
  const std::uint64_t planned = spec.workers * spec.iterations;
  report.ExpectEq("pushes_are_workers_times_iterations", result.total_pushes,
                  planned);
  // Every planned iteration plus one restart per abort; an iteration that
  // never pushed (a worker that stopped early) is a failed one.
  std::uint64_t attempted = planned + result.total_aborts;
  std::uint64_t failed =
      planned - std::min<std::uint64_t>(planned, result.total_pushes);
  if (args.trace) {
    const std::uint64_t pulls = obs.metrics.counter("runtime.pulls").value();
    report.ExpectEq("runtime_pulls_are_pushes_plus_aborts", pulls,
                    result.total_pushes + result.total_aborts);
    const std::uint64_t timeouts = obs.metrics.counter("net.timeouts").value();
    const std::uint64_t requests =
        obs.metrics.histogram("net.rtt_s").count() + timeouts;
    attempted = pulls + requests;
    failed = (pulls - std::min(pulls, result.total_pushes +
                                          result.total_aborts)) +
             timeouts;
  }
  spans.Add("evaluation", eval_begin, Clock::now());

  report.Set("run_s", run_s);
  report.Set("pushes", static_cast<double>(result.total_pushes));
  report.Set("aborts", static_cast<double>(result.total_aborts));
  report.Set("attempted", static_cast<double>(attempted));
  report.Set("failed", static_cast<double>(failed));
  report.Set("loss_end", result.final_loss);

  if (!args.trace) {
    report.Set("peak_rss_mb", peak_rss_mb);
    return 0;
  }
  obs::MetricsRegistry& m = obs.metrics;
  ExpectRecorded(m, "ps.shard", ".lock_wait_s", report);
  ExpectRecorded(m, "ps.shard", ".lock_hold_s", report);
  ExpectRecorded(m, "net.rtt_s", "", report);
  ExpectRecorded(m, "net.server.pull_s", "", report);
  ExpectRecorded(m, "net.server.push_s", "", report);
  ExpectRecorded(m, "runtime.iteration_s", "", report);
  ExpectRegistered(m, "net.retries", report);
  ExpectRegistered(m, "net.timeouts", report);
  ExpectRegistered(m, "net.link.link_deaths", report);
  report.Layer("harness.workload_build_s",
               *std::min_element(workload_build.begin(), workload_build.end()));
  report.Layer("harness.engine_build_s",
               *std::min_element(engine_build.begin(), engine_build.end()));
  ModelLayers(*timed, report);
  report.Layer("core.retunes",
               static_cast<double>(result.scheduler_stats.retunes));
  report.Layer("core.resyncs",
               static_cast<double>(result.scheduler_stats.resyncs_issued));
  const double pulls = static_cast<double>(m.counter("runtime.pulls").value());
  report.Layer("core.useful_iteration_ratio",
               static_cast<double>(result.total_pushes) / pulls);
  report.Layer("ps.lock_wait_s", HistSum(m, "ps.shard", ".lock_wait_s"));
  report.Layer("ps.lock_hold_s", HistSum(m, "ps.shard", ".lock_hold_s"));
  const obs::LatencyHistogram& rtt = obs.metrics.histogram("net.rtt_s");
  report.Layer("net.requests",
               static_cast<double>(rtt.count() +
                                   obs.metrics.counter("net.timeouts").value()));
  report.Layer("net.rtt_p50_ms", rtt.ApproxQuantileSeconds(0.5) * 1e3);
  report.Layer("net.rtt_p99_ms", rtt.ApproxQuantileSeconds(0.99) * 1e3);
  report.Layer("net.server_pull_us",
               obs.metrics.histogram("net.server.pull_s").mean_seconds() * 1e6);
  report.Layer("net.server_push_us",
               obs.metrics.histogram("net.server.push_s").mean_seconds() * 1e6);
  report.Layer("net.retries",
               static_cast<double>(obs.metrics.counter("net.retries").value()));
  report.Layer("net.timeouts",
               static_cast<double>(obs.metrics.counter("net.timeouts").value()));
  report.Layer("net.link_deaths",
               static_cast<double>(CounterSum(m, "net.link.link_deaths")));
  const obs::LatencyHistogram& iteration =
      obs.metrics.histogram("runtime.iteration_s");
  report.Layer("runtime.iteration_p50_ms",
               iteration.ApproxQuantileSeconds(0.5) * 1e3);
  report.Layer("runtime.iteration_p99_ms",
               iteration.ApproxQuantileSeconds(0.99) * 1e3);
  report.Layer("runtime.pulls", pulls);
  report.Layer("obs.traced_pushes_per_s",
               static_cast<double>(result.total_pushes) / run_s);
  if (!args.trace_out.empty() && !spans.Write(args.trace_out)) return 2;
  return 0;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--mode" && (value == "measure" || value == "trace")) {
      args.trace = value == "trace";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed;
}

}  // namespace
}  // namespace specsync::perfbench

int main(int argc, char** argv) {
  using namespace specsync::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::cerr << "usage: perfbench_runner --workload NAME --seed N "
                 "[--mode measure|trace] [--trace-out PATH]\n";
    return 2;
  }
  const auto& specs = Specs();
  const auto it = std::find_if(specs.begin(), specs.end(),
                               [&](const WorkloadSpec& s) {
                                 return s.name == args.workload;
                               });
  if (it == specs.end()) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  Report report;
  report.SetString("workload", it->name);
  report.Set("seed", static_cast<double>(args.seed));
  const int rc = it->engine == Engine::kSim ? RunSim(*it, args, report)
                                            : RunRuntime(*it, args, report);
  report.Print(std::cout);
  if (rc != 0) return rc;
  return report.all_ok() ? 0 : 1;
}
