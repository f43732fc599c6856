// Sorted-run routing against a per-element reference: cutting a canonical
// gradient at shard boundaries (CutCanonical, RouteGradient, PushShard) must
// agree with looking up every element's owner on its own, on uneven layouts,
// empty shards, boundary indices and empty gradients. Non-canonical input
// must fail a checked precondition, except on the wire path, which takes any
// entries and applies only the shard's own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "optim/lr_schedule.h"
#include "ps/param_store.h"
#include "ps/shard_offsets.h"

namespace specsync {
namespace {

std::shared_ptr<const SgdApplier> UnitApplier() {
  return std::make_shared<SgdApplier>(std::make_shared<ConstantSchedule>(1.0));
}

// owner[i] = the shard whose [offset, offset + length) holds i, filled shard
// by shard: no search, so it shares nothing with the code under test.
std::vector<std::size_t> OwnerTable(
    const std::vector<std::pair<std::size_t, std::size_t>>& layout) {
  std::vector<std::size_t> owner;
  for (std::size_t s = 0; s < layout.size(); ++s) {
    owner.insert(owner.end(), layout[s].second, s);
  }
  return owner;
}

// A random canonical gradient over [0, dim): every index is in with
// probability p, and each shard's first and last index with probability 1/2.
Gradient RandomCanonical(Rng& rng, std::size_t dim, double p,
                         const std::vector<std::size_t>& owner) {
  Gradient g = Gradient::Sparse();
  for (std::size_t i = 0; i < dim; ++i) {
    const bool boundary = i == 0 || i + 1 == dim || owner[i] != owner[i - 1] ||
                          owner[i] != owner[i + 1];
    if (rng.Bernoulli(boundary ? 0.5 : p)) {
      g.sparse().Add(i, rng.Uniform(-1.0, 1.0));
    }
  }
  return g;
}

TEST(SparseRoutingTest, CutCanonicalMatchesPerElementOwnerWithEmptyShards) {
  Rng rng(20261020);
  for (int trial = 0; trial < 400; ++trial) {
    // Random lengths, about a third of them zero (leading, inner and
    // trailing empty shards), at least one parameter overall.
    const std::size_t num_shards = 1 + rng.Index(8);
    std::vector<std::pair<std::size_t, std::size_t>> layout;
    std::vector<std::size_t> offsets;
    std::size_t dim = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
      const std::size_t length = rng.Bernoulli(0.35) ? 0 : 1 + rng.Index(6);
      layout.emplace_back(dim, length);
      offsets.push_back(dim);
      dim += length;
    }
    if (dim == 0) continue;
    const std::vector<std::size_t> owner = OwnerTable(layout);
    for (std::size_t i = 0; i < dim; ++i) {
      ASSERT_EQ(ShardOfOffset(offsets, i), owner[i]) << "index " << i;
    }
    const Gradient g = RandomCanonical(rng, dim, rng.Uniform(0.0, 1.0), owner);
    const auto indices = g.sparse().indices();
    const std::vector<std::size_t> cuts =
        CutCanonical(g.sparse(), offsets, dim);
    ASSERT_EQ(cuts.size(), num_shards + 1);
    EXPECT_EQ(cuts.front(), 0u);
    EXPECT_EQ(cuts.back(), indices.size());
    for (std::size_t s = 0; s < num_shards; ++s) {
      ASSERT_LE(cuts[s], cuts[s + 1]);
      for (std::size_t i = cuts[s]; i < cuts[s + 1]; ++i) {
        EXPECT_EQ(owner[indices[i]], s) << "trial " << trial;
      }
    }
  }
}

TEST(SparseRoutingTest, RouteAndPushShardMatchPerElementReference) {
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t dim = 1 + rng.Index(120);
    const std::size_t num_shards = 1 + rng.Index(std::min<std::size_t>(dim, 9));
    const auto layout = ParameterServer::ShardSplit(dim, num_shards);
    const std::vector<std::size_t> owner = OwnerTable(layout);
    // p = 0 now and then: the empty gradient.
    const double p = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(0.0, 0.6);
    Gradient g = Gradient::Sparse();
    if (p > 0.0) g = RandomCanonical(rng, dim, p, owner);

    std::vector<std::size_t> nnz(num_shards, 0);
    for (const std::uint64_t index : g.sparse().indices()) ++nnz[owner[index]];
    std::vector<ParameterServer::ShardRoute> want;
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (nnz[s] > 0) want.push_back({s, nnz[s] * 16});
    }
    if (want.empty()) want.push_back({0, 0});

    ParameterServer server(dim, num_shards, UnitApplier());
    server.SetParams(DenseVector(dim, 0.0));
    const auto routes = server.RouteGradient(g);
    ASSERT_EQ(routes.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(routes[i].shard, want[i].shard);
      EXPECT_EQ(routes[i].bytes, want[i].bytes);
    }

    // Each shard applies exactly its own entries, and only they bump it.
    DenseVector expected(dim, 0.0);
    for (std::size_t s = 0; s < num_shards; ++s) {
      EXPECT_EQ(server.PushShard(s, g, 0), nnz[s] > 0);
      EXPECT_EQ(server.shard(s).version, nnz[s] > 0 ? 1u : 0u);
      for (std::size_t i = 0; i < g.sparse().nnz(); ++i) {
        const std::uint64_t index = g.sparse().indices()[i];
        if (owner[index] == s) expected[index] -= g.sparse().values()[i];
      }
      EXPECT_EQ(server.Snapshot(), expected) << "after shard " << s;
    }
  }
}

TEST(SparseRoutingTest, NonCanonicalSparseGradientFailsTheCheckedPaths) {
  ParameterServer server(10, 3, UnitApplier());
  Gradient unsorted = Gradient::Sparse();
  unsorted.sparse().Add(8, 1.0);
  unsorted.sparse().Add(1, 1.0);
  Gradient duplicated = Gradient::Sparse();
  duplicated.sparse().Add(4, 1.0);
  duplicated.sparse().Add(4, 1.0);
  for (const Gradient* g : {&unsorted, &duplicated}) {
    EXPECT_THROW(server.RouteGradient(*g), CheckError);
    EXPECT_THROW(server.PushShard(0, *g, 0), CheckError);
    EXPECT_THROW(server.Push(*g, 0), CheckError);
  }
  EXPECT_EQ(server.version(), 0u);
  // Coalesced, the same entries route normally.
  unsorted.sparse().Coalesce();
  EXPECT_EQ(server.RouteGradient(unsorted).size(), 2u);
  // Past the vector's end.
  Gradient past_end = Gradient::Sparse();
  past_end.sparse().Add(10, 1.0);
  EXPECT_THROW(server.RouteGradient(past_end), CheckError);
}

TEST(SparseRoutingTest, WirePathTakesAnyOrderAndAppliesOnlyItsShard) {
  ParameterServer server(10, 2, UnitApplier());  // [0,5) [5,10)
  server.SetParams(DenseVector(10, 0.0));
  const std::vector<std::uint64_t> indices{9, 2, 5, 1ull << 60, 9, 7, ~0ull};
  const std::vector<double> values{1.0, 100.0, 2.0, 100.0, 0.5, 4.0, 100.0};
  EXPECT_TRUE(server.PushShardSparseSlice(1, indices, values, 0));
  DenseVector expected(10, 0.0);
  expected[9] = -1.5;
  expected[5] = -2.0;
  expected[7] = -4.0;
  EXPECT_EQ(server.Snapshot(), expected);
  EXPECT_EQ(server.shard(0).version, 0u);
  EXPECT_EQ(server.shard(1).version, 1u);
  // Nothing of shard 0's: no apply, no version bump.
  EXPECT_FALSE(server.PushShardSparseSlice(0, std::vector<std::uint64_t>{7},
                                           std::vector<double>{1.0}, 0));
  EXPECT_EQ(server.shard(0).version, 0u);
}

}  // namespace
}  // namespace specsync
