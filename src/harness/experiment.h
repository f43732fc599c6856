// Experiment driver: one (workload, cluster, scheme) combination -> SimResult
// plus the derived metrics the paper reports.
#pragma once

#include <optional>
#include <string>

#include "harness/workload.h"
#include "sim/cluster.h"

namespace specsync {

// Cluster shape, mirroring the paper's testbeds (Sec. VI-A).
struct ClusterSpec {
  std::size_t num_workers = 40;
  // Parameter-server shard count (paper-like default: 4 server processes).
  std::size_t num_servers = 4;
  // Log-normal sigma of per-iteration compute jitter. Homogeneous EC2 nodes
  // doing identical work vary by a few percent iteration to iteration; the
  // transient-straggler knob below supplies the heavy tail.
  double compute_jitter_sigma = 0.08;
  // Per-class speed multipliers assigned round-robin; empty = homogeneous.
  // Cluster 2 (4 instance classes) uses {1.7, 0.9, 1.0, 0.5}-style factors.
  std::vector<double> class_multipliers;
  // Transient straggler injection (independent background load spikes): with
  // this probability an iteration runs `straggler_slowdown` times slower.
  double straggler_probability = 0.02;
  double straggler_slowdown = 3.0;
  // Correlated contention events (noisy neighbors / congestion hitting a
  // cohort of nodes at once) — the source of the bursty push arrivals the
  // paper's Fig. 3 traces show. Timescales are in units of the workload's
  // iteration time so every workload sees comparable burstiness.
  bool enable_contention = true;
  double contention_gap_iters = 5.0;       // mean gap between events
  double contention_duration_iters = 1.5;  // mean event length
  double contention_cohort_fraction = 0.3;
  double contention_slowdown = 2.5;
  // Server-side stalls (incast congestion / pauses): deliveries queued during
  // a stall land in one batch when it ends — the burst source. Timescales in
  // iteration units.
  bool enable_stalls = true;
  double stall_gap_iters = 3.0;       // mean gap between stalls
  double stall_duration_iters = 0.4;  // mean stall length
  // Fault injection (message drop/duplication/delay, slowdown windows, worker
  // crashes), forwarded to ClusterSimConfig::faults. Disabled by default.
  FaultPlanConfig faults;

  static ClusterSpec Homogeneous(std::size_t num_workers) {
    ClusterSpec c;
    c.num_workers = num_workers;
    return c;
  }
  // The paper's Cluster 2: 4 instance generations/sizes, 10 nodes each.
  static ClusterSpec Heterogeneous(std::size_t num_workers) {
    ClusterSpec c;
    c.num_workers = num_workers;
    c.class_multipliers = {1.7, 0.9, 1.0, 0.5};
    return c;
  }
};

struct ExperimentConfig {
  ClusterSpec cluster;
  SchemeSpec scheme;
  SimTime max_time = SimTime::FromSeconds(20000.0);
  std::uint64_t max_pushes = 0;
  std::uint64_t seed = 7;
  bool stop_on_convergence = true;
  // Override the workload's loss target (<=0 keeps the workload's own).
  double loss_target_override = 0.0;
  // Optional observability context, forwarded to ClusterSimConfig::obs.
  obs::ObsContext* obs = nullptr;
  // Gradient wire compression, forwarded to ClusterSimConfig::compression.
  CompressionSpec compression;
};

struct ExperimentResult {
  std::string workload_name;
  std::string scheme_name;
  SimResult sim;
  // Runtime to convergence; nullopt when the target was never met.
  std::optional<Duration> time_to_target;
  std::optional<std::uint64_t> pushes_to_target;
  double final_loss = 0.0;
};

ExperimentResult RunExperiment(const Workload& workload,
                               const ExperimentConfig& config);

// Loss at or before `time` (last sample <= time); nullopt before first sample.
std::optional<double> LossAtTime(const TrainingTrace& trace, SimTime time);

// Post-hoc convergence extraction: first sample time from which `patience`
// consecutive samples are below `target`.
std::optional<SimTime> TimeToTarget(const TrainingTrace& trace, double target,
                                    std::size_t patience = 5);

}  // namespace specsync
