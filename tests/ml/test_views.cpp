/// Tests of the stride/view machinery: Shape/Strides small-buffer
/// semantics and logical<->storage round trips, zero-copy transpose /
/// slice / reshape / broadcast views (aliasing, guards), bitwise agreement
/// of a view-built graph with the same graph over contiguousCopy'd views,
/// and finite-difference gradient checks through view-built graphs.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "gradcheck.hpp"
#include "ml/ops.hpp"
#include "ml/shape.hpp"
#include "ml/tensor.hpp"

namespace artsci::ml {
namespace {

Tensor randomTensor(Shape shape, Rng& rng, bool requiresGrad = false) {
  return Tensor::randn(std::move(shape), rng, Real(1), requiresGrad);
}

// --- Shape / Strides value types ------------------------------------------

TEST(ShapeType, SmallBufferOperations) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s.back(), 4);
  s.push_back(5);
  EXPECT_EQ(s.size(), 4u);
  s.pop_back();
  s.erase(s.begin() + 1);
  EXPECT_EQ(s, (Shape{2, 4}));
  s.resize(3);
  EXPECT_EQ(s[2], 0);  // resize zero-fills
  Shape copy = s;
  EXPECT_EQ(copy, s);
  copy[0] = 7;
  EXPECT_NE(copy, s);  // value semantics, no shared storage
}

TEST(ShapeType, RowMajorStrides) {
  EXPECT_EQ(rowMajorStrides({2, 3, 4}), (Strides{12, 4, 1}));
  EXPECT_EQ(rowMajorStrides({5}), (Strides{1}));
  EXPECT_EQ(rowMajorStrides({}), (Strides{}));
}

TEST(ShapeType, LogicalToStorageRoundTrip) {
  // For row-major strides the mapping must be the identity...
  const Shape shape{3, 4, 5};
  const Strides dense = rowMajorStrides(shape);
  for (long i = 0; i < 60; ++i)
    EXPECT_EQ(logicalToStorage(shape, dense, i), i);
  // ...and for transposed strides it must visit the transposed slots.
  const Strides t{1, 5, 20};  // logical [3,4,5] walking a [5,4,3] buffer
  EXPECT_EQ(logicalToStorage(shape, t, 0), 0);
  // logical (i,j,k) -> storage i + 5j + 20k
  EXPECT_EQ(logicalToStorage(shape, t, /*i=1,j=2,k=3*/ 1 * 20 + 2 * 5 + 3),
            1 + 5 * 2 + 20 * 3);
}

// --- view construction, aliasing, guards ----------------------------------

TEST(Views, TransposeIsZeroCopyAndAliases) {
  Tensor a = Tensor::fromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = transpose2d(a);
  ASSERT_TRUE(t.isView());
  EXPECT_FALSE(t.isContiguous());
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.strides(), (Strides{1, 3}));
  EXPECT_EQ(t.at(0), Real(1));
  EXPECT_EQ(t.at(1), Real(4));  // t[0,1] = a[1,0]
  // Aliasing: mutating the base is visible through the view.
  a.data()[3] = Real(40);
  EXPECT_EQ(t.at(1), Real(40));
  // The vector accessor is heap-only; views must trip the guard.
  EXPECT_THROW(t.data(), ContractError);
}

TEST(Views, ColumnSliceIsAStridedView) {
  Rng rng(5);
  Tensor a = randomTensor({4, 6}, rng);
  Tensor v = slice(a, -1, 2, 5);
  ASSERT_TRUE(v.isView());
  EXPECT_EQ(v.shape(), (Shape{4, 3}));
  EXPECT_EQ(v.strides(), (Strides{6, 1}));  // base strides, offset 2
  EXPECT_EQ(v.dataPtr(), a.dataPtr() + 2);
  std::vector<Real> expect;
  for (long r = 0; r < 4; ++r)
    for (long c = 2; c < 5; ++c) expect.push_back(a.data()[r * 6 + c]);
  EXPECT_EQ(v.toVector(), expect);
}

TEST(Views, RowSliceStaysContiguous) {
  Rng rng(6);
  Tensor a = randomTensor({5, 3}, rng);
  Tensor v = slice(a, 0, 1, 4);
  ASSERT_TRUE(v.isView());
  EXPECT_TRUE(v.isContiguous());  // whole rows: dense strides, offset 3
  EXPECT_EQ(v.toVector(),
            std::vector<Real>(a.data().begin() + 3, a.data().begin() + 12));
}

TEST(Views, BroadcastToIsStrideZeroView) {
  Tensor a = Tensor::fromVector({3}, {1, 2, 3});
  Tensor b = broadcastTo(a, {4, 3});
  ASSERT_TRUE(b.isView());
  EXPECT_EQ(b.strides(), (Strides{0, 1}));
  const std::vector<Real> expect{1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3};
  EXPECT_EQ(b.toVector(), expect);
}

TEST(Views, ReshapeFastViewOnContiguousCopyOtherwise) {
  Rng rng(7);
  Tensor a = randomTensor({2, 6}, rng);
  Tensor r = reshape(a, {3, 4});
  ASSERT_TRUE(r.isView());
  EXPECT_TRUE(r.isContiguous());
  EXPECT_EQ(r.dataPtr(), a.dataPtr());
  EXPECT_EQ(r.toVector(), a.toVector());
  // A transposed (non-contiguous) input cannot alias: it is materialized
  // first, so the result is dense and holds the transposed elements.
  Tensor rt = reshape(transpose2d(a), {3, 4});
  EXPECT_TRUE(rt.isContiguous());
  EXPECT_NE(rt.dataPtr(), a.dataPtr());
  EXPECT_EQ(rt.shape(), (Shape{3, 4}));
  EXPECT_EQ(rt.toVector(), contiguousCopy(transpose2d(a)).toVector());
}

TEST(Views, ChainedViewsCollapseToOneBase) {
  Rng rng(8);
  Tensor a = randomTensor({4, 8}, rng);
  Tensor v = slice(slice(a, -1, 2, 8), -1, 1, 4);  // cols [3, 6)
  ASSERT_TRUE(v.isView());
  // The chain collapses onto the root buffer: v aliases a directly.
  EXPECT_EQ(v.dataPtr(), a.dataPtr() + 3);
  EXPECT_EQ(v.toVector(), slice(a, -1, 3, 6).toVector());
}

TEST(Views, ContiguousCopyMaterializesViews) {
  Rng rng(9);
  Tensor a = randomTensor({3, 5}, rng);
  Tensor t = transpose2d(a);
  Tensor c = contiguousCopy(t);
  EXPECT_FALSE(c.isView());
  EXPECT_TRUE(c.isContiguous());
  EXPECT_EQ(c.toVector(), t.toVector());
  // asContiguous is the identity on dense tensors (same storage)...
  EXPECT_EQ(asContiguous(a).dataPtr(), a.dataPtr());
  // ...but materializes strided ones.
  EXPECT_FALSE(asContiguous(t).isView());
}

// --- bitwise agreement: view path vs materializing path -------------------

/// A computation exercising transpose, column slices, and broadcast. With
/// `materialize` every view is passed through contiguousCopy before its
/// consumer sees it — the copy-per-view formulation — and the result and
/// gradients must not change by one bit.
Tensor viewHeavyLoss(const Tensor& x, const Tensor& w, const Tensor& row,
                     bool materialize) {
  auto view = [materialize](const Tensor& v) {
    return materialize ? contiguousCopy(v) : v;
  };
  Tensor y = matmul(x, w);                             // [B, D]
  const long D = y.dim(1);
  Tensor left = view(slice(y, -1, 0, D / 2));          // column view
  Tensor right = view(slice(y, -1, D / 2, D));         // column view
  Tensor mixed = mul(left, right);                     // strided elementwise
  Tensor shifted = add(mixed, view(broadcastTo(row, mixed.shape())));
  Tensor back = matmul(view(transpose2d(shifted)), x);  // transposed operand
  return sumAll(back);
}

TEST(Views, BitwiseAgreementWithMaterializedPath) {
  Rng rng(10);
  // 32 rows: each broadcast slot of `row` sums 32 gradient terms, enough
  // that accumulating them in another order changes the bits.
  Tensor x = randomTensor({32, 4}, rng, true);
  Tensor w = randomTensor({4, 6}, rng, true);
  Tensor row = randomTensor({3}, rng, true);

  Tensor lossViews = viewHeavyLoss(x, w, row, /*materialize=*/false);
  lossViews.backward();
  const Real valueViews = lossViews.item();
  const std::vector<Real> gx = x.grad(), gw = w.grad(), gr = row.grad();

  x.zeroGrad();
  w.zeroGrad();
  row.zeroGrad();
  Tensor lossCopies = viewHeavyLoss(x, w, row, /*materialize=*/true);
  lossCopies.backward();
  EXPECT_EQ(valueViews, lossCopies.item());
  EXPECT_EQ(x.grad(), gx);
  EXPECT_EQ(w.grad(), gw);
  EXPECT_EQ(row.grad(), gr);
}

// --- gradient correctness through views -----------------------------------

TEST(Views, GradcheckThroughTransposeView) {
  Rng rng(11);
  auto fn = [](const std::vector<Tensor>& in) {
    return sumAll(square(matmul(transpose2d(in[0]), in[1])));
  };
  auto res = gradCheck(fn, {randomTensor({3, 4}, rng, true),
                            randomTensor({3, 2}, rng, true)});
  EXPECT_TRUE(res.ok) << "maxAbs=" << res.maxAbsError;
}

TEST(Views, GradcheckThroughColumnSliceViews) {
  Rng rng(12);
  auto fn = [](const std::vector<Tensor>& in) {
    Tensor a = slice(in[0], -1, 0, 2);
    Tensor b = slice(in[0], -1, 2, 4);
    return sumAll(mul(square(a), tanhT(b)));
  };
  auto res = gradCheck(fn, {randomTensor({5, 4}, rng, true)});
  EXPECT_TRUE(res.ok) << "maxAbs=" << res.maxAbsError;
}

TEST(Views, GradcheckThroughBroadcastView) {
  Rng rng(13);
  auto fn = [](const std::vector<Tensor>& in) {
    Tensor wide = broadcastTo(in[0], {6, 3});
    return sumAll(mul(wide, in[1]));
  };
  auto res = gradCheck(fn, {randomTensor({3}, rng, true),
                            randomTensor({6, 3}, rng, true)});
  EXPECT_TRUE(res.ok) << "maxAbs=" << res.maxAbsError;
}

TEST(Views, GradcheckThroughReshapeView) {
  Rng rng(14);
  auto fn = [](const std::vector<Tensor>& in) {
    return sumAll(square(reshape(in[0], {6, 2})));
  };
  auto res = gradCheck(fn, {randomTensor({3, 4}, rng, true)});
  EXPECT_TRUE(res.ok) << "maxAbs=" << res.maxAbsError;
}

}  // namespace
}  // namespace artsci::ml
