// Sparse update vector.
//
// Matrix-factorization gradients touch only the rows of the user/item factor
// matrices that appear in the mini-batch (paper Sec. VI-A: "input data of MF
// are user ratings represented by sparse vectors"). A SparseUpdate carries
// (index, value) pairs against a dense destination and knows its own wire
// size so the transfer accounting (Figs. 12-13) can charge it correctly.
//
// Canonical form: indices strictly increasing (sorted, no duplicates). Models
// emit canonical gradients, and routing and apply rely on it (DESIGN.md §15);
// the update tracks whether it is canonical as entries are added, so the
// check costs nothing on the hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace specsync {

class SparseUpdate {
 public:
  SparseUpdate() = default;

  void Reserve(std::size_t n) {
    indices_.reserve(n);
    values_.reserve(n);
  }

  void Add(std::uint64_t index, double value) {
    canonical_ = canonical_ && (indices_.empty() || indices_.back() < index);
    indices_.push_back(index);
    values_.push_back(value);
  }

  std::size_t nnz() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }
  // True when the indices are strictly increasing.
  bool canonical() const { return canonical_; }
  std::span<const std::uint64_t> indices() const { return indices_; }
  std::span<const double> values() const { return values_; }
  // In-place value rewrites (the gradient codec quantizes without changing
  // the support); indices stay immutable through this accessor.
  std::span<double> mutable_values() { return values_; }

  void Clear() {
    indices_.clear();
    values_.clear();
    canonical_ = true;
  }

  // Brings the update into canonical form: a stable sort by index, then
  // entries with equal indices are summed in insertion order. That order is
  // the contract, so the result is bit-identical on every standard library.
  // An update that is already canonical is left as it is.
  void Coalesce();

  // dest[index] += alpha * value for each entry; indices must be < dest size.
  void ScatterAdd(double alpha, std::span<double> dest) const;

  // Multiplies every stored value by alpha.
  void ScaleValues(double alpha);

  // Approximate wire size: 8-byte index + 8-byte value per entry.
  std::size_t wire_bytes() const { return nnz() * 16; }

 private:
  std::vector<std::uint64_t> indices_;
  std::vector<double> values_;
  bool canonical_ = true;
};

// Merges canonical runs into one canonical update, summing equal indices in
// run order: bit-identical to concatenating the runs and calling Coalesce(),
// without the sort. Every run must be canonical (checked).
SparseUpdate MergeCanonical(std::span<const SparseUpdate> runs);

// Densifies into a vector of the given size (entries outside are an error).
std::vector<double> ToDense(const SparseUpdate& update, std::size_t size);

}  // namespace specsync
