// Model tests: numerical gradient checks (the key property test for every
// model), loss semantics, and trainability.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "models/linear_regression.h"
#include "models/matrix_factorization.h"
#include "models/mlp.h"
#include "models/softmax_regression.h"

namespace specsync {
namespace {

std::shared_ptr<const ClassificationDataset> SmallClassData(
    std::uint64_t seed, std::size_t n = 60, std::size_t d = 6,
    std::size_t c = 3) {
  Rng rng(seed);
  ClassificationSpec spec;
  spec.num_examples = n;
  spec.feature_dim = d;
  spec.num_classes = c;
  return std::make_shared<ClassificationDataset>(
      GenerateClassification(spec, rng));
}

std::shared_ptr<const RatingsDataset> SmallRatings(std::uint64_t seed) {
  Rng rng(seed);
  RatingsSpec spec;
  spec.num_users = 12;
  spec.num_items = 9;
  spec.num_ratings = 80;
  spec.true_rank = 3;
  return std::make_shared<RatingsDataset>(GenerateRatings(spec, rng));
}

// Central-difference gradient check on a batch. Sparse gradients are
// densified. Checks a strided subset of coordinates for speed.
void CheckGradient(const Model& model, std::uint64_t seed,
                   double tolerance = 1e-5) {
  Rng rng(seed);
  std::vector<double> params(model.param_dim());
  model.InitParams(params, rng);

  std::vector<std::size_t> batch(std::min<std::size_t>(7, model.dataset_size()));
  std::iota(batch.begin(), batch.end(), 0u);

  Gradient grad;
  model.LossAndGradient(params, batch, grad);
  const std::vector<double> dense =
      grad.is_sparse() ? ToDense(grad.sparse(), params.size()) : grad.dense();

  const double eps = 1e-6;
  const std::size_t stride = std::max<std::size_t>(1, params.size() / 40);
  for (std::size_t i = 0; i < params.size(); i += stride) {
    const double saved = params[i];
    params[i] = saved + eps;
    const double up = model.Loss(params, batch);
    params[i] = saved - eps;
    const double down = model.Loss(params, batch);
    params[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(dense[i], numeric, tolerance)
        << model.name() << " param " << i;
  }
}

TEST(GradientCheckTest, SoftmaxRegression) {
  SoftmaxRegressionModel model(SmallClassData(1), {});
  CheckGradient(model, 11);
}

TEST(GradientCheckTest, SoftmaxRegressionNoReg) {
  SoftmaxRegressionModel model(SmallClassData(2), {.regularization = 0.0});
  CheckGradient(model, 12);
}

TEST(GradientCheckTest, MlpOneHidden) {
  MlpClassifierModel model(SmallClassData(3), {.hidden = {5}});
  CheckGradient(model, 13, 1e-4);
}

TEST(GradientCheckTest, MlpTwoHidden) {
  MlpClassifierModel model(SmallClassData(4),
                           {.hidden = {6, 4}, .regularization = 1e-3});
  CheckGradient(model, 14, 1e-4);
}

TEST(GradientCheckTest, MlpNoHiddenIsSoftmaxTopology) {
  MlpClassifierModel model(SmallClassData(5), {.hidden = {}});
  CheckGradient(model, 15);
}

TEST(GradientCheckTest, MatrixFactorization) {
  MatrixFactorizationConfig config;
  config.rank = 3;
  config.regularization = 0.05;
  config.sum_gradient = false;  // gradient of the reported mean loss
  MatrixFactorizationModel model(SmallRatings(6), config);
  CheckGradient(model, 16);
}

TEST(GradientCheckTest, LinearRegression) {
  auto data = SmallClassData(7);
  std::vector<double> targets(data->size());
  Rng rng(8);
  for (double& t : targets) t = rng.Normal(0.0, 1.0);
  LinearRegressionModel model(data, std::move(targets), 0.01);
  CheckGradient(model, 17);
}

TEST(MfModelTest, SumGradientIsBatchTimesMean) {
  MatrixFactorizationConfig mean_config;
  mean_config.rank = 3;
  mean_config.sum_gradient = false;
  MatrixFactorizationConfig sum_config = mean_config;
  sum_config.sum_gradient = true;
  auto data = SmallRatings(9);
  MatrixFactorizationModel mean_model(data, mean_config);
  MatrixFactorizationModel sum_model(data, sum_config);

  Rng rng(10);
  std::vector<double> params(mean_model.param_dim());
  mean_model.InitParams(params, rng);
  std::vector<std::size_t> batch{0, 1, 2, 3};
  Gradient gm, gs;
  mean_model.LossAndGradient(params, batch, gm);
  sum_model.LossAndGradient(params, batch, gs);
  const auto dm = ToDense(gm.sparse(), params.size());
  const auto ds = ToDense(gs.sparse(), params.size());
  for (std::size_t i = 0; i < dm.size(); ++i) {
    EXPECT_NEAR(ds[i], dm[i] * 4.0, 1e-12);
  }
}

TEST(MfModelTest, ParamLayoutOffsets) {
  MatrixFactorizationConfig config;
  config.rank = 4;
  MatrixFactorizationModel model(SmallRatings(11), config);
  EXPECT_EQ(model.param_dim(), (12 + 9) * 4u);
  EXPECT_EQ(model.user_offset(2), 8u);
  EXPECT_EQ(model.item_offset(0), 48u);
  EXPECT_THROW(model.user_offset(12), CheckError);
  EXPECT_THROW(model.item_offset(9), CheckError);
}

TEST(MfModelTest, GradientIsSparseAndTouchesOnlyBatchRows) {
  MatrixFactorizationConfig config;
  config.rank = 2;
  auto data = SmallRatings(12);
  MatrixFactorizationModel model(data, config);
  EXPECT_TRUE(model.prefers_sparse_gradients());
  Rng rng(13);
  std::vector<double> params(model.param_dim());
  model.InitParams(params, rng);
  std::vector<std::size_t> batch{0};
  Gradient grad;
  model.LossAndGradient(params, batch, grad);
  ASSERT_TRUE(grad.is_sparse());
  // One rating touches exactly 2*rank coordinates.
  EXPECT_EQ(grad.sparse().nnz(), 4u);
}

// The pre-row-block emission: per-element (index, value) pairs in batch
// order, user entry then item entry for each k, stable-coalesced. The model's
// row-block emission must reproduce it bit for bit.
double ReferenceMfLossAndGradient(const RatingsDataset& data,
                                  const MatrixFactorizationConfig& config,
                                  std::span<const double> params,
                                  std::span<const std::size_t> batch,
                                  SparseUpdate& grad) {
  const std::size_t r = config.rank;
  const double inv_batch = 1.0 / static_cast<double>(batch.size());
  const double grad_scale = config.sum_gradient ? 1.0 : inv_batch;
  std::vector<std::pair<std::uint64_t, double>> pairs;
  double loss = 0.0;
  for (const std::size_t idx : batch) {
    const Rating& rating = data.rating(idx);
    const std::size_t uo = rating.user * r;
    const std::size_t io = (data.num_users() + rating.item) * r;
    double dot = 0.0;
    for (std::size_t k = 0; k < r; ++k) dot += params[uo + k] * params[io + k];
    const double err = dot - rating.value;
    double reg_term = 0.0;
    for (std::size_t k = 0; k < r; ++k) {
      const double uk = params[uo + k];
      const double vk = params[io + k];
      reg_term += uk * uk + vk * vk;
      pairs.emplace_back(uo + k,
                         grad_scale * (err * vk + config.regularization * uk));
      pairs.emplace_back(io + k,
                         grad_scale * (err * uk + config.regularization * vk));
    }
    loss += 0.5 * err * err + 0.5 * config.regularization * reg_term;
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  grad.Clear();
  for (const auto& [index, value] : pairs) {
    if (!grad.empty() && grad.indices().back() == index) {
      grad.mutable_values().back() += value;
    } else {
      grad.Add(index, value);
    }
  }
  return loss * inv_batch;
}

TEST(MfModelTest, RowBlockGradientMatchesPerElementReferenceBitwise) {
  // Few users and items, so every batch repeats rows three and more times
  // and the summation order is visible in the low bits.
  Rng data_rng(31);
  RatingsSpec spec;
  spec.num_users = 5;
  spec.num_items = 4;
  spec.num_ratings = 300;
  spec.true_rank = 3;
  auto data = std::make_shared<RatingsDataset>(GenerateRatings(spec, data_rng));
  for (const bool sum_gradient : {true, false}) {
    MatrixFactorizationConfig config;
    config.rank = 6;
    config.regularization = 0.03;
    config.init_scale = 1.5;
    config.sum_gradient = sum_gradient;
    MatrixFactorizationModel model(data, config);
    Rng rng(32);
    std::vector<double> params(model.param_dim());
    for (int trial = 0; trial < 50; ++trial) {
      model.InitParams(params, rng);
      std::vector<std::size_t> batch(1 + rng.Index(120));
      for (std::size_t& idx : batch) idx = rng.Index(data->size());
      Gradient grad;
      const double loss = model.LossAndGradient(params, batch, grad);
      SparseUpdate want;
      const double want_loss =
          ReferenceMfLossAndGradient(*data, config, params, batch, want);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(loss),
                std::bit_cast<std::uint64_t>(want_loss));
      ASSERT_TRUE(grad.is_sparse());
      EXPECT_TRUE(grad.sparse().canonical());
      ASSERT_EQ(grad.sparse().nnz(), want.nnz());
      for (std::size_t i = 0; i < want.nnz(); ++i) {
        ASSERT_EQ(grad.sparse().indices()[i], want.indices()[i]);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(grad.sparse().values()[i]),
                  std::bit_cast<std::uint64_t>(want.values()[i]))
            << "trial " << trial << " index " << want.indices()[i];
      }
    }
  }
}

TEST(SoftmaxModelTest, UniformInitGivesLogCLoss) {
  auto data = SmallClassData(14, 90, 6, 3);
  SoftmaxRegressionModel model(data, {.regularization = 0.0});
  std::vector<double> params(model.param_dim(), 0.0);
  std::vector<std::size_t> batch(30);
  std::iota(batch.begin(), batch.end(), 0u);
  EXPECT_NEAR(model.Loss(params, batch), std::log(3.0), 1e-9);
}

TEST(SoftmaxModelTest, TrainingImprovesAccuracy) {
  auto data = SmallClassData(15, 300, 8, 3);
  SoftmaxRegressionModel model(data, {});
  Rng rng(16);
  std::vector<double> params(model.param_dim());
  model.InitParams(params, rng);
  const double acc_before = model.Accuracy(params);

  std::vector<std::size_t> all(data->size());
  std::iota(all.begin(), all.end(), 0u);
  Gradient grad;
  for (int step = 0; step < 200; ++step) {
    model.LossAndGradient(params, all, grad);
    Axpy(-0.5, grad.dense(), params);
  }
  EXPECT_GT(model.Accuracy(params), acc_before);
  EXPECT_GT(model.Accuracy(params), 0.5);
}

TEST(MlpModelTest, ParamDimMatchesTopology) {
  auto data = SmallClassData(17, 30, 6, 3);
  MlpClassifierModel model(data, {.hidden = {5, 4}});
  // (6*5+5) + (5*4+4) + (4*3+3) = 35 + 24 + 15.
  EXPECT_EQ(model.param_dim(), 74u);
  EXPECT_EQ(model.num_layers(), 3u);
}

TEST(MlpModelTest, FullBatchTrainingReducesLoss) {
  auto data = SmallClassData(18, 200, 8, 4);
  MlpClassifierModel model(data, {.hidden = {16}});
  Rng rng(19);
  std::vector<double> params(model.param_dim());
  model.InitParams(params, rng);
  std::vector<std::size_t> all(data->size());
  std::iota(all.begin(), all.end(), 0u);
  const double loss_before = model.Loss(params, all);
  Gradient grad;
  for (int step = 0; step < 150; ++step) {
    model.LossAndGradient(params, all, grad);
    Axpy(-0.5, grad.dense(), params);
  }
  EXPECT_LT(model.Loss(params, all), loss_before * 0.8);
}

TEST(ModelTest, FullLossSubsampleApproximatesFull) {
  auto data = SmallClassData(20, 500, 8, 4);
  SoftmaxRegressionModel model(data, {});
  Rng rng(21);
  std::vector<double> params(model.param_dim());
  model.InitParams(params, rng);
  const double full = model.FullLoss(params);
  const double sub = model.FullLoss(params, 250);
  EXPECT_NEAR(sub, full, 0.1 * std::abs(full) + 0.05);
}

TEST(GradientTest, DenseAddToAndClear) {
  Gradient g = Gradient::Dense(3);
  g.dense()[0] = 1.0;
  g.dense()[2] = -2.0;
  std::vector<double> dest(3, 10.0);
  g.AddTo(2.0, dest);
  EXPECT_EQ(dest, (std::vector<double>{12.0, 10.0, 6.0}));
  EXPECT_EQ(g.wire_bytes(), 24u);
  g.Clear();
  EXPECT_EQ(g.dense(), (std::vector<double>{0.0, 0.0, 0.0}));
}

TEST(GradientTest, SparseAddTo) {
  Gradient g = Gradient::Sparse();
  g.sparse().Add(1, 3.0);
  std::vector<double> dest(3, 0.0);
  g.AddTo(-1.0, dest);
  EXPECT_EQ(dest, (std::vector<double>{0.0, -3.0, 0.0}));
}

TEST(LinearRegressionTest, TargetSizeMismatchThrows) {
  auto data = SmallClassData(22, 10, 4, 2);
  EXPECT_THROW(LinearRegressionModel(data, std::vector<double>(5)), CheckError);
}

TEST(LinearRegressionTest, RecoversPlantedWeights) {
  // Plant y = w.x + b exactly; full-batch GD must drive loss to ~0.
  auto raw = SmallClassData(23, 300, 6, 2);
  std::vector<double> w_true{1.0, -2.0, 0.5, 0.0, 3.0, -1.0};
  std::vector<double> targets(raw->size());
  for (std::size_t i = 0; i < raw->size(); ++i) {
    targets[i] = Dot(raw->example(i).features, w_true) + 0.7;
  }
  LinearRegressionModel model(raw, std::move(targets), 0.0);
  Rng rng(24);
  std::vector<double> params(model.param_dim());
  model.InitParams(params, rng);
  std::vector<std::size_t> all(raw->size());
  std::iota(all.begin(), all.end(), 0u);
  Gradient grad;
  for (int step = 0; step < 2000; ++step) {
    model.LossAndGradient(params, all, grad);
    Axpy(-0.5, grad.dense(), params);
  }
  EXPECT_LT(model.Loss(params, all), 1e-3);
}

}  // namespace
}  // namespace specsync
