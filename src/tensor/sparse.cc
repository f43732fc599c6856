#include "tensor/sparse.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace specsync {

void SparseUpdate::Coalesce() {
  if (canonical_) return;
  std::vector<std::pair<std::uint64_t, double>> entries(indices_.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i] = {indices_[i], values_[i]};
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t out = 0;
  for (const auto& [index, value] : entries) {
    if (out > 0 && indices_[out - 1] == index) {
      values_[out - 1] += value;
    } else {
      indices_[out] = index;
      values_[out] = value;
      ++out;
    }
  }
  indices_.resize(out);
  values_.resize(out);
  canonical_ = true;
}

void SparseUpdate::ScatterAdd(double alpha, std::span<double> dest) const {
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    SPECSYNC_CHECK_LT(indices_[i], dest.size());
    dest[indices_[i]] += alpha * values_[i];
  }
}

void SparseUpdate::ScaleValues(double alpha) {
  for (double& v : values_) v *= alpha;
}

SparseUpdate MergeCanonical(std::span<const SparseUpdate> runs) {
  std::size_t total = 0;
  for (const SparseUpdate& run : runs) {
    SPECSYNC_CHECK(run.canonical());
    total += run.nnz();
  }
  SparseUpdate merged;
  merged.Reserve(total);
  std::vector<std::size_t> heads(runs.size(), 0);
  for (;;) {
    // The smallest index at any run's head; then every run holding it adds
    // its value, in run order.
    bool any = false;
    std::uint64_t next = 0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (heads[r] == runs[r].nnz()) continue;
      const std::uint64_t index = runs[r].indices()[heads[r]];
      if (!any || index < next) next = index;
      any = true;
    }
    if (!any) return merged;
    bool first = true;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (heads[r] == runs[r].nnz() || runs[r].indices()[heads[r]] != next) {
        continue;
      }
      const double value = runs[r].values()[heads[r]++];
      if (first) {
        merged.Add(next, value);
        first = false;
      } else {
        merged.mutable_values().back() += value;
      }
    }
  }
}

std::vector<double> ToDense(const SparseUpdate& update, std::size_t size) {
  std::vector<double> dense(size, 0.0);
  update.ScatterAdd(1.0, dense);
  return dense;
}

}  // namespace specsync
