#include "tensor/sparse_mask.hpp"

#include <gtest/gtest.h>

#include "tensor/coo_list.hpp"
#include "util/rng.hpp"

namespace sofia {
namespace {

Mask RandomMask(const Shape& shape, double density, uint64_t seed) {
  Rng rng(seed);
  Mask omega(shape, false);
  for (size_t k = 0; k < shape.NumElements(); ++k) {
    omega.Set(k, rng.Bernoulli(density));
  }
  return omega;
}

TEST(SparseMaskTest, RoundTripsThroughDenseMask) {
  for (double density : {0.0, 0.07, 0.5, 1.0}) {
    Mask omega = RandomMask(Shape({5, 4, 3}), density, 11);
    SparseMask sparse = SparseMask::FromMask(omega);
    EXPECT_TRUE(sparse.valid());
    EXPECT_EQ(sparse.nnz(), omega.CountObserved());
    EXPECT_TRUE(sparse.ToMask() == omega);
    EXPECT_TRUE(sparse.Matches(omega));
  }
}

TEST(SparseMaskTest, FromIndicesAndFromCooAgree) {
  Mask omega = RandomMask(Shape({6, 5}), 0.3, 13);
  CooList coo = CooList::Build(omega);
  SparseMask from_coo = SparseMask::FromCoo(coo);
  SparseMask from_idx =
      SparseMask::FromIndices(omega.shape(), omega.ObservedIndices());
  EXPECT_TRUE(from_coo == from_idx);
  EXPECT_TRUE(from_coo == SparseMask::FromMask(omega));
}

TEST(SparseMaskTest, DefaultConstructedIsInvalidAndMatchesNothing) {
  SparseMask empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.Matches(Mask(Shape({2, 2}), false)));
}

TEST(SparseMaskTest, MatchesRejectsSubsetsAndSupersets) {
  // Equal count + containment is the equality proof Matches relies on;
  // strict subsets and supersets must both reject.
  Mask omega(Shape({4, 4}), false);
  omega.Set(1, true);
  omega.Set(9, true);
  SparseMask sparse = SparseMask::FromMask(omega);

  Mask superset = omega;
  superset.Set(12, true);
  EXPECT_FALSE(sparse.Matches(superset));  // Count differs.

  Mask shifted(Shape({4, 4}), false);
  shifted.Set(1, true);
  shifted.Set(10, true);  // Same count, different support.
  EXPECT_FALSE(sparse.Matches(shifted));

  EXPECT_FALSE(sparse.Matches(Mask(Shape({4, 5}), false)));  // Shape.
  EXPECT_TRUE(sparse.Matches(omega));

  // The pattern caches run the same check on the CooList they hold.
  const CooList coo = CooList::Build(omega);
  EXPECT_FALSE(coo.Matches(superset));
  EXPECT_FALSE(coo.Matches(shifted));
  EXPECT_FALSE(coo.Matches(Mask(Shape({4, 5}), false)));
  EXPECT_TRUE(coo.Matches(omega));
}

TEST(SparseMaskTest, EqualityEarlyExitsOnSize) {
  SparseMask a = SparseMask::FromIndices(Shape({3, 3}), {0, 4});
  SparseMask b = SparseMask::FromIndices(Shape({3, 3}), {0, 4, 8});
  SparseMask c = SparseMask::FromIndices(Shape({3, 3}), {0, 5});
  EXPECT_TRUE(a != b);
  EXPECT_TRUE(a != c);
  EXPECT_TRUE(a == SparseMask::FromIndices(Shape({3, 3}), {0, 4}));
}

TEST(SparseMaskTest, DeltaSizeIsSymmetricDifference) {
  SparseMask a = SparseMask::FromIndices(Shape({4, 4}), {0, 3, 7, 9});
  SparseMask b = SparseMask::FromIndices(Shape({4, 4}), {3, 7, 10});
  // A-only: {0, 9}; B-only: {10} -> delta 3, symmetric.
  EXPECT_EQ(a.DeltaSize(b), 3u);
  EXPECT_EQ(b.DeltaSize(a), 3u);
  EXPECT_EQ(a.DeltaSize(a), 0u);
  SparseMask empty = SparseMask::FromIndices(Shape({4, 4}), {});
  EXPECT_EQ(a.DeltaSize(empty), a.nnz());
}

/// Every CooList field: records, coordinates and both bucket tables.
void ExpectSameCooList(const CooList& got, const CooList& want) {
  EXPECT_TRUE(got.shape() == want.shape());
  ASSERT_EQ(got.order(), want.order());
  ASSERT_EQ(got.nnz(), want.nnz());
  EXPECT_EQ(got.LinearIndices(), want.LinearIndices());
  for (size_t k = 0; k < got.nnz(); ++k) {
    for (size_t n = 0; n < got.order(); ++n) {
      ASSERT_EQ(got.Index(k, n), want.Index(k, n)) << "record " << k;
    }
  }
  for (size_t n = 0; n < got.order(); ++n) {
    ASSERT_TRUE(got.has_mode_bucket(n));
    ASSERT_TRUE(want.has_mode_bucket(n));
    EXPECT_EQ(got.ModeOrder(n), want.ModeOrder(n)) << "mode " << n;
    EXPECT_EQ(got.SlicePtr(n), want.SlicePtr(n)) << "mode " << n;
  }
}

/// The slow, obviously right construction the one-pass build must equal:
/// delinearize each observed index by division, bucket each mode with a
/// stable counting sort.
void ExpectMatchesReference(const CooList& coo, const Mask& omega) {
  const Shape& shape = omega.shape();
  const std::vector<size_t> observed = omega.ObservedIndices();
  ASSERT_EQ(coo.LinearIndices(), observed);
  std::vector<size_t> idx;
  for (size_t k = 0; k < observed.size(); ++k) {
    shape.DelinearizeInto(observed[k], &idx);
    for (size_t n = 0; n < shape.order(); ++n) {
      ASSERT_EQ(coo.Index(k, n), idx[n]) << "record " << k << " mode " << n;
    }
  }
  for (size_t n = 0; n < shape.order(); ++n) {
    std::vector<size_t> ptr(shape.dim(n) + 1, 0);
    std::vector<uint32_t> order;
    for (size_t s = 0; s < shape.dim(n); ++s) {
      for (size_t k = 0; k < observed.size(); ++k) {
        if (coo.Index(k, n) == s) order.push_back(static_cast<uint32_t>(k));
      }
      ptr[s + 1] = order.size();
    }
    EXPECT_EQ(coo.ModeOrder(n), order) << "mode " << n;
    EXPECT_EQ(coo.SlicePtr(n), ptr) << "mode " << n;
  }
}

TEST(SparseMaskTest, CooFromIndicesMatchesDenseBuild) {
  // The one-pass dense-mask build and the |Ω|-scaling index build must
  // produce the identical structure (records, coords, buckets), equal to
  // a division-and-counting-sort reference, for orders 1-4, a length-1
  // mode, empty and full masks, and masks whose observed count is cached
  // or not.
  const std::vector<Shape> shapes = {
      Shape({17}),         Shape({6, 5}),    Shape({4, 3, 5}),
      Shape({3, 4, 2, 3}), Shape({5, 1, 4}), Shape({1, 7}),
      Shape({6, 1})};
  uint64_t seed = 17;
  for (const Shape& shape : shapes) {
    for (double density : {0.0, 0.3, 0.72, 1.0}) {
      for (bool cached_count : {true, false}) {
        SCOPED_TRACE(shape.ToString() + " density " +
                     std::to_string(density) +
                     (cached_count ? " cached" : " uncached"));
        // RandomMask's Set() calls leave the observed count uncached.
        Mask omega = RandomMask(shape, density, ++seed);
        if (cached_count) omega.CountObserved();
        const Mask reference_copy = omega;
        CooList dense_built = CooList::Build(omega);
        CooList from_idx = CooList::FromIndices(
            shape, reference_copy.ObservedIndices());
        ExpectSameCooList(dense_built, from_idx);
        ExpectMatchesReference(dense_built, reference_copy);
        EXPECT_TRUE(dense_built.Matches(reference_copy));
      }
    }
  }
}

}  // namespace
}  // namespace sofia
