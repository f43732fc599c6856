// Shard offset table: the one lookup every sharded component shares.
//
// A layout of S contiguous shards tiling [0, dim) from offset 0 is described
// by its ascending offset table: shard s covers [offsets[s], offsets[s + 1]),
// the last shard up to dim. An empty shard repeats its successor's offset and
// owns nothing. The parameter store, the wire client and the gradient codec
// all route through these functions, so they cannot disagree on a boundary.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "tensor/sparse.h"

namespace specsync {

// The shard owning `index`: the last shard whose offset is <= index, which
// skips empty shards. `offsets[0]` must be 0; the caller checks index < dim.
inline std::size_t ShardOfOffset(std::span<const std::size_t> offsets,
                                 std::size_t index) {
  const auto it = std::upper_bound(offsets.begin(), offsets.end(), index);
  return static_cast<std::size_t>(it - offsets.begin()) - 1;
}

// Cuts a canonical sparse update at the shard boundaries: entries
// [cuts[s], cuts[s + 1]) fall in shard s, and cuts has offsets.size() + 1
// points. One lower_bound per boundary, so routing costs O(S log nnz), not a
// lookup per element. Checks that `update` is canonical and that its indices
// lie below `dim`; call Coalesce() first.
inline std::vector<std::size_t> CutCanonical(
    const SparseUpdate& update, std::span<const std::size_t> offsets,
    std::size_t dim) {
  SPECSYNC_CHECK(update.canonical())
      << "sparse gradient routed before Coalesce()";
  const auto indices = update.indices();
  if (!indices.empty()) {
    SPECSYNC_CHECK_LT(indices.back(), dim);
  }
  std::vector<std::size_t> cuts(offsets.size() + 1, 0);
  auto from = indices.begin();
  for (std::size_t s = 1; s < offsets.size(); ++s) {
    from = std::lower_bound(from, indices.end(), offsets[s]);
    cuts[s] = static_cast<std::size_t>(from - indices.begin());
  }
  cuts.back() = indices.size();
  return cuts;
}

}  // namespace specsync
