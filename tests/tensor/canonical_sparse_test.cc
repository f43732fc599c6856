// The determinism contract of canonical sparse updates: Coalesce() and
// MergeCanonical() must sum equal indices in insertion (run) order, bit for
// bit against a std::stable_sort reference, on inputs where the order shows:
// indices repeated three or more times, values of mixed magnitude, signed
// zeros and denormals.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/sparse.h"

namespace specsync {
namespace {

// Sort the positions stably by index, then fold equal indices left to right.
SparseUpdate StableReference(const SparseUpdate& in) {
  std::vector<std::size_t> order(in.nnz());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return in.indices()[a] < in.indices()[b];
                   });
  SparseUpdate out;
  for (const std::size_t pos : order) {
    if (!out.empty() && out.indices().back() == in.indices()[pos]) {
      out.mutable_values().back() += in.values()[pos];
    } else {
      out.Add(in.indices()[pos], in.values()[pos]);
    }
  }
  return out;
}

void ExpectBitIdentical(const SparseUpdate& got, const SparseUpdate& want) {
  ASSERT_EQ(got.nnz(), want.nnz());
  for (std::size_t i = 0; i < got.nnz(); ++i) {
    EXPECT_EQ(got.indices()[i], want.indices()[i]) << "entry " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.values()[i]),
              std::bit_cast<std::uint64_t>(want.values()[i]))
        << "entry " << i << " index " << got.indices()[i] << ": "
        << got.values()[i] << " vs " << want.values()[i];
  }
}

// Values whose sum depends on the order they are added in.
double OrderSensitiveValue(Rng& rng) {
  static constexpr double kPool[] = {
      1e16,   -1e16, 1.0,    -1.0,   0.1,    3.0,
      0.0,    -0.0,  5e-324, -5e-324, std::numeric_limits<double>::min() / 2,
      1e-300, 7.5,   -2.25};
  const double v = kPool[rng.Index(std::size(kPool))];
  return rng.Bernoulli(0.3) ? v * rng.Uniform(0.5, 2.0) : v;
}

SparseUpdate RandomUpdate(Rng& rng, std::size_t nnz, std::uint64_t span) {
  SparseUpdate update;
  for (std::size_t i = 0; i < nnz; ++i) {
    update.Add(rng.Index(span), OrderSensitiveValue(rng));
  }
  return update;
}

TEST(CanonicalSparseTest, CoalesceMatchesStableSortReferenceBitwise) {
  Rng rng(20261020);
  std::size_t max_repeats = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t nnz = rng.Index(200);
    SparseUpdate update = RandomUpdate(rng, nnz, 1 + rng.Index(24));
    std::map<std::uint64_t, std::size_t> repeats;
    for (const std::uint64_t index : update.indices()) {
      max_repeats = std::max(max_repeats, ++repeats[index]);
    }
    const SparseUpdate want = StableReference(update);
    update.Coalesce();
    EXPECT_TRUE(update.canonical());
    ExpectBitIdentical(update, want);
    if (HasFailure()) FAIL() << "trial " << trial;
  }
  EXPECT_GE(max_repeats, 3u);
}

TEST(CanonicalSparseTest, SignedZerosSumInInsertionOrder) {
  // -0.0 + +0.0 is +0.0, and -0.0 alone stays -0.0: the first-inserted value
  // seeds the sum, so a lone -0.0 entry is kept bit for bit.
  SparseUpdate update;
  update.Add(4, -0.0);
  update.Add(1, -0.0);
  update.Add(4, 0.0);
  update.Coalesce();
  ASSERT_EQ(update.nnz(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(update.values()[0]),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(update.values()[1]),
            std::bit_cast<std::uint64_t>(0.0));
}

TEST(CanonicalSparseTest, CanonicalTracksStrictlyIncreasingIndices) {
  SparseUpdate update;
  EXPECT_TRUE(update.canonical());
  update.Add(2, 1.0);
  update.Add(5, 1.0);
  EXPECT_TRUE(update.canonical());
  update.Add(5, 1.0);  // a duplicate is not canonical
  EXPECT_FALSE(update.canonical());
  update.Coalesce();
  EXPECT_TRUE(update.canonical());
  update.Add(0, 1.0);  // out of order
  EXPECT_FALSE(update.canonical());
  update.Clear();
  EXPECT_TRUE(update.canonical());
}

TEST(CanonicalSparseTest, MergeCanonicalMatchesConcatenateThenCoalesce) {
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t num_runs = 1 + rng.Index(5);
    const std::uint64_t span = 1 + rng.Index(40);
    std::vector<SparseUpdate> runs;
    SparseUpdate concatenated;
    for (std::size_t r = 0; r < num_runs; ++r) {
      SparseUpdate run = RandomUpdate(rng, rng.Index(30), span);
      run.Coalesce();
      for (std::size_t i = 0; i < run.nnz(); ++i) {
        concatenated.Add(run.indices()[i], run.values()[i]);
      }
      runs.push_back(std::move(run));
    }
    const SparseUpdate merged = MergeCanonical(runs);
    EXPECT_TRUE(merged.canonical());
    ExpectBitIdentical(merged, StableReference(concatenated));
    if (HasFailure()) FAIL() << "trial " << trial;
  }
}

TEST(CanonicalSparseTest, MergeCanonicalRejectsNonCanonicalRuns) {
  std::vector<SparseUpdate> runs(2);
  runs[0].Add(1, 1.0);
  runs[1].Add(3, 1.0);
  runs[1].Add(2, 1.0);
  EXPECT_THROW(MergeCanonical(runs), CheckError);
  EXPECT_TRUE(MergeCanonical({}).empty());
}

}  // namespace
}  // namespace specsync
