// Timing decorator around the Model interface.
//
// The engines call a workload's model from their own threads (the sim from
// one thread, the threaded runtime from every worker thread plus the final
// evaluation on the caller). TimedModel forwards every call and charges its
// wall time to an accumulator owned by the calling thread, so timing adds no
// lock or shared cache line between worker threads. Totals are read after
// the engine's run call has joined every thread that used the model.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "models/model.h"

namespace specsync::perfbench {

// One cache line per thread's totals, so no two threads write to the same
// line.
struct alignas(64) ModelTotals {
  std::uint64_t grad_calls = 0;
  double grad_s = 0.0;  // LossAndGradient
  double eval_s = 0.0;  // Loss, which FullLoss evaluations go through
};

class TimedModel final : public Model {
 public:
  explicit TimedModel(std::shared_ptr<const Model> inner);

  std::string name() const override { return inner_->name(); }
  std::size_t param_dim() const override { return inner_->param_dim(); }
  std::size_t dataset_size() const override { return inner_->dataset_size(); }
  void InitParams(std::span<double> params, Rng& rng) const override {
    inner_->InitParams(params, rng);
  }
  double LossAndGradient(std::span<const double> params,
                         std::span<const std::size_t> batch,
                         Gradient& grad) const override;
  double Loss(std::span<const double> params,
              std::span<const std::size_t> batch) const override;
  bool prefers_sparse_gradients() const override {
    return inner_->prefers_sparse_gradients();
  }

  // Sum over every thread that called the model. Only valid once those
  // threads have been joined.
  ModelTotals Totals() const;

 private:
  ModelTotals& ThreadTotals() const;

  std::shared_ptr<const Model> inner_;
  // Distinguishes instances in the per-thread cache, which must not trust a
  // recycled address.
  std::uint64_t instance_id_;
  mutable std::mutex mutex_;  // guards the list, not the totals in it
  mutable std::vector<std::unique_ptr<ModelTotals>> per_thread_;
};

}  // namespace specsync::perfbench
