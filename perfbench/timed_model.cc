#include "timed_model.h"

#include <atomic>
#include <chrono>

#include "common/check.h"

namespace specsync::perfbench {

namespace {

std::atomic<std::uint64_t> next_instance_id{1};

struct ThreadCache {
  std::uint64_t instance_id = 0;
  ModelTotals* totals = nullptr;
};
thread_local ThreadCache cache;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

TimedModel::TimedModel(std::shared_ptr<const Model> inner)
    : inner_(std::move(inner)),
      instance_id_(next_instance_id.fetch_add(1, std::memory_order_relaxed)) {
  SPECSYNC_CHECK(inner_ != nullptr);
}

ModelTotals& TimedModel::ThreadTotals() const {
  if (cache.instance_id != instance_id_) {
    std::scoped_lock lock(mutex_);
    per_thread_.push_back(std::make_unique<ModelTotals>());
    cache = {instance_id_, per_thread_.back().get()};
  }
  return *cache.totals;
}

double TimedModel::LossAndGradient(std::span<const double> params,
                                   std::span<const std::size_t> batch,
                                   Gradient& grad) const {
  ModelTotals& totals = ThreadTotals();
  const auto start = std::chrono::steady_clock::now();
  const double loss = inner_->LossAndGradient(params, batch, grad);
  totals.grad_s += SecondsSince(start);
  ++totals.grad_calls;
  return loss;
}

double TimedModel::Loss(std::span<const double> params,
                        std::span<const std::size_t> batch) const {
  ModelTotals& totals = ThreadTotals();
  const auto start = std::chrono::steady_clock::now();
  const double loss = inner_->Loss(params, batch);
  totals.eval_s += SecondsSince(start);
  return loss;
}

ModelTotals TimedModel::Totals() const {
  std::scoped_lock lock(mutex_);
  ModelTotals sum;
  for (const auto& t : per_thread_) {
    sum.grad_calls += t->grad_calls;
    sum.grad_s += t->grad_s;
    sum.eval_s += t->eval_s;
  }
  return sum;
}

}  // namespace specsync::perfbench
