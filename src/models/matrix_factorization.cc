#include "models/matrix_factorization.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace specsync {

namespace {

// Sorts (row << 32 | slot) keys by row with a stable LSD radix sort, one
// byte of the row per pass. The keys arrive in slot order, so stability
// keeps batch order within a row: the same result as sorting whole keys,
// in linear time. `max_row` bounds the rows and so the number of passes.
void SortByRow(std::vector<std::uint64_t>& keys, std::uint64_t max_row) {
  std::vector<std::uint64_t> scratch(keys.size());
  for (unsigned shift = 0; shift < 32 && (max_row >> shift) != 0;
       shift += 8) {
    std::array<std::size_t, 257> start{};
    for (const std::uint64_t key : keys) {
      ++start[((key >> (32 + shift)) & 0xff) + 1];
    }
    for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (const std::uint64_t key : keys) {
      scratch[start[(key >> (32 + shift)) & 0xff]++] = key;
    }
    keys.swap(scratch);
  }
}

// One rating's residual err = U_u . V_i - value and its loss term
// 0.5 * err^2 + 0.5 * reg * (|U_u|^2 + |V_i|^2), both summed in k order.
struct RatingFit {
  double err = 0.0;
  double loss = 0.0;
};
RatingFit FitRating(std::span<const double> params, std::size_t uo,
                    std::size_t io, std::size_t rank, double value,
                    double reg) {
  double dot = 0.0;
  double reg_term = 0.0;
  for (std::size_t k = 0; k < rank; ++k) {
    dot += params[uo + k] * params[io + k];
    reg_term += params[uo + k] * params[uo + k] +
                params[io + k] * params[io + k];
  }
  const double err = dot - value;
  return {err, 0.5 * err * err + 0.5 * reg * reg_term};
}

}  // namespace

MatrixFactorizationModel::MatrixFactorizationModel(
    std::shared_ptr<const RatingsDataset> data,
    MatrixFactorizationConfig config)
    : data_(std::move(data)), config_(config) {
  SPECSYNC_CHECK(data_ != nullptr);
  SPECSYNC_CHECK_GT(config_.rank, 0u);
  SPECSYNC_CHECK_GE(config_.regularization, 0.0);
  // LossAndGradient packs a factor row into 32 bits of a sort key.
  SPECSYNC_CHECK_LT(data_->num_users() + data_->num_items(),
                    std::size_t{1} << 32);
}

std::size_t MatrixFactorizationModel::param_dim() const {
  return (data_->num_users() + data_->num_items()) * config_.rank;
}

std::size_t MatrixFactorizationModel::user_offset(std::size_t user) const {
  SPECSYNC_CHECK_LT(user, data_->num_users());
  return user * config_.rank;
}

std::size_t MatrixFactorizationModel::item_offset(std::size_t item) const {
  SPECSYNC_CHECK_LT(item, data_->num_items());
  return (data_->num_users() + item) * config_.rank;
}

void MatrixFactorizationModel::InitParams(std::span<double> params,
                                          Rng& rng) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  for (double& v : params) {
    v = rng.Uniform(-config_.init_scale, config_.init_scale);
  }
}

double MatrixFactorizationModel::LossAndGradient(
    std::span<const double> params, std::span<const std::size_t> batch,
    Gradient& grad) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  SPECSYNC_CHECK(!batch.empty());
  SPECSYNC_CHECK_LT(batch.size(), std::size_t{1} << 32);

  const double inv_batch = 1.0 / static_cast<double>(batch.size());
  const double grad_scale = config_.sum_gradient ? 1.0 : inv_batch;
  const double reg = config_.regularization;
  const std::size_t r = config_.rank;

  // Pass 1, in batch order: each rating's residual and the loss. Every
  // rating touches two factor rows; a key packs (row, batch slot), and the
  // keys are then ordered by row, and by batch order within a row.
  struct Touch {
    std::size_t uo = 0;
    std::size_t io = 0;
    double err = 0.0;
  };
  std::vector<Touch> touches(batch.size());
  std::vector<std::uint64_t> keys;
  keys.reserve(2 * batch.size());
  double loss = 0.0;
  for (std::size_t slot = 0; slot < batch.size(); ++slot) {
    const Rating& rating = data_->rating(batch[slot]);
    const std::size_t uo = user_offset(rating.user);
    const std::size_t io = item_offset(rating.item);
    const RatingFit fit = FitRating(params, uo, io, r, rating.value, reg);
    loss += fit.loss;
    touches[slot] = Touch{uo, io, fit.err};
    keys.push_back(static_cast<std::uint64_t>(uo / r) << 32 | slot);
    keys.push_back(static_cast<std::uint64_t>(io / r) << 32 | slot);
  }
  SortByRow(keys, data_->num_users() + data_->num_items() - 1);

  // Pass 2: one coalesced block of `rank` entries per touched row, its
  // contributions summed in batch order — the canonical gradient, with no
  // generic re-sort. d/dU_uk = err * V_ik + reg * U_uk, and symmetrically
  // d/dV_ik = err * U_uk + reg * V_ik.
  grad = Gradient::Sparse();
  SparseUpdate& out = grad.sparse();
  out.Reserve(keys.size() * r);
  const std::size_t user_rows_end = data_->num_users() * r;
  for (std::size_t i = 0; i < keys.size();) {
    const std::uint64_t row = keys[i] >> 32;
    const std::size_t offset = static_cast<std::size_t>(row) * r;
    for (bool first = true; i < keys.size() && keys[i] >> 32 == row;
         ++i, first = false) {
      const Touch& touch = touches[keys[i] & 0xffffffffu];
      const std::size_t partner = offset < user_rows_end ? touch.io : touch.uo;
      if (first) {
        for (std::size_t k = 0; k < r; ++k) out.Add(offset + k, 0.0);
      }
      // The first contribution is assigned, not added to 0.0, so a -0.0
      // keeps its sign exactly as a per-element sum would.
      const std::span<double> block = out.mutable_values().last(r);
      for (std::size_t k = 0; k < r; ++k) {
        const double g = grad_scale * (touch.err * params[partner + k] +
                                       reg * params[offset + k]);
        block[k] = first ? g : block[k] + g;
      }
    }
  }
  return loss * inv_batch;
}

double MatrixFactorizationModel::Loss(std::span<const double> params,
                                      std::span<const std::size_t> batch) const {
  SPECSYNC_CHECK_EQ(params.size(), param_dim());
  SPECSYNC_CHECK(!batch.empty());
  double loss = 0.0;
  for (std::size_t idx : batch) {
    const Rating& rating = data_->rating(idx);
    loss += FitRating(params, user_offset(rating.user),
                      item_offset(rating.item), config_.rank, rating.value,
                      config_.regularization)
                .loss;
  }
  return loss / static_cast<double>(batch.size());
}

}  // namespace specsync
