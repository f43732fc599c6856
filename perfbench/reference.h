// The benchmark's own copy of the MF inputs and loss formula, used to check
// the engines' reported losses from their returned weights.
//
// The ratings are regenerated from the workload seed with the spec the
// harness uses at scale 1.0 (MakeMfWorkload in harness/workload.cc); the loss
// is written out here from the model's documented definition, not called
// through MatrixFactorizationModel.
#pragma once

#include <cstdint>
#include <span>

#include "data/dataset.h"

namespace specsync::perfbench {

RatingsDataset RegenerateMfData(std::uint64_t seed);

// The MF model's rank and L2 weight as the harness configures them.
inline constexpr std::size_t kMfRank = 8;
inline constexpr double kMfRegularization = 0.02;

// Mean over the strided subsample of `max_examples` ratings (0 = all) that
// Model::FullLoss evaluates of
//   0.5 * (U_u . V_i - r)^2 + 0.5 * reg * (|U_u|^2 + |V_i|^2)
// with parameters laid out as [U (users x rank) | V (items x rank)].
double MfLoss(const RatingsDataset& data, std::span<const double> params,
              std::size_t max_examples);

}  // namespace specsync::perfbench
