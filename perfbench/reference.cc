#include "reference.h"

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"

namespace specsync::perfbench {

namespace {

std::vector<std::size_t> Subsample(std::size_t n, std::size_t max_examples) {
  const std::size_t use =
      max_examples == 0 ? n : std::min(n, max_examples);
  std::vector<std::size_t> indices(use);
  const double stride = static_cast<double>(n) / static_cast<double>(use);
  for (std::size_t i = 0; i < use; ++i) {
    indices[i] = use == n ? i
                          : static_cast<std::size_t>(static_cast<double>(i) *
                                                     stride);
  }
  return indices;
}

}  // namespace

RatingsDataset RegenerateMfData(std::uint64_t seed) {
  RatingsSpec spec;
  spec.num_users = 600;
  spec.num_items = 400;
  spec.num_ratings = 60000;
  spec.true_rank = 8;
  spec.noise_stddev = 0.1;
  Rng rng(seed);
  return GenerateRatings(spec, rng);
}

double MfLoss(const RatingsDataset& data, std::span<const double> params,
              std::size_t max_examples) {
  const std::size_t r = kMfRank;
  SPECSYNC_CHECK_EQ(params.size(), (data.num_users() + data.num_items()) * r);
  const std::vector<std::size_t> indices = Subsample(data.size(), max_examples);
  double total = 0.0;
  for (std::size_t idx : indices) {
    const Rating& rating = data.rating(idx);
    const double* u = params.data() + rating.user * r;
    const double* v = params.data() + (data.num_users() + rating.item) * r;
    double dot = 0.0;
    double norms = 0.0;
    for (std::size_t k = 0; k < r; ++k) {
      dot += u[k] * v[k];
      norms += u[k] * u[k] + v[k] * v[k];
    }
    const double err = dot - rating.value;
    total += 0.5 * err * err + 0.5 * kMfRegularization * norms;
  }
  return total / static_cast<double>(indices.size());
}

}  // namespace specsync::perfbench
