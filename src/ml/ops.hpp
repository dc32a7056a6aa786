/// \file ops.hpp
/// Differentiable tensor operations. Each function builds one node of the
/// autograd graph; backward passes are exact (verified by finite-difference
/// gradient checks in tests/ml).
///
/// Broadcasting follows numpy right-aligned semantics for the elementwise
/// binary ops; gradients are sum-reduced over broadcast dimensions.
#pragma once

#include <vector>

#include "ml/tensor.hpp"

namespace artsci::ml {

// --- broadcasting helpers ------------------------------------------------
/// Right-aligned numpy broadcast of two shapes; throws on mismatch.
Shape broadcastShapes(const Shape& a, const Shape& b);

// --- elementwise binary (broadcasting) ------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return div(a, b); }

// --- scalar --------------------------------------------------------------
Tensor addScalar(const Tensor& a, Real s);
Tensor mulScalar(const Tensor& a, Real s);

// --- unary ---------------------------------------------------------------
Tensor neg(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor leakyRelu(const Tensor& a, Real slope = Real(0.01));
Tensor tanhT(const Tensor& a);
Tensor expT(const Tensor& a);
Tensor square(const Tensor& a);
Tensor reciprocal(const Tensor& a);

// --- linear algebra --------------------------------------------------------
/// Matrix product [M,K] x [K,N] -> [M,N]. Forward and both backward
/// products run on the shared register-blocked SIMD kernels
/// (ml/kernels/gemm.hpp); the OpenMP path partitions output rows with a
/// fixed static chunking, so results are bit-identical across thread
/// counts. Row-strided views of `a` (column slices, arbitrary lda) feed
/// the kernels directly; any other layout is materialized first, which
/// reproduces the pre-view buffer bit-for-bit.
Tensor matmul(const Tensor& a, const Tensor& b);

/// Elementwise nonlinearity selector. Enumerator order matches
/// kernels::Act so serving-side mappings stay a checked static_cast;
/// ml/layers.hpp re-exports it for the layer constructors.
enum class Activation { kNone, kRelu, kLeakyRelu, kTanh };

/// Fused linear layer act(x[rows,in] · w[in,out] (+ bias[out])) ->
/// [rows,out]: one graph node instead of matmul+add+activation, on the
/// same shared kernels. The epilogue order (k-ascending accumulation,
/// bias last, activation after) and the backward formulas are exactly
/// those of the former separate nodes, so fusion never changes bits.
/// `bias` may be an undefined Tensor (no-bias layer). This is the
/// training hot path — ml::Linear routes through it.
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& bias,
              Activation act = Activation::kNone);
/// [M,N] -> [N,M] as a zero-copy stride-swap view.
Tensor transpose2d(const Tensor& a);

// --- reductions ------------------------------------------------------------
Tensor sumAll(const Tensor& a);   ///< -> scalar
Tensor meanAll(const Tensor& a);  ///< -> scalar
/// Sum over one axis. keepdim retains a size-1 axis.
Tensor sumAxis(const Tensor& a, int axis, bool keepdim = false);
/// Max over one axis; backward routes gradient to argmax positions
/// (the PointNet max-pool over the particle axis).
Tensor maxAxis(const Tensor& a, int axis, bool keepdim = false);

// --- views (zero-copy; ml/shape.hpp stride machinery) -----------------------
// transpose2d, slice, reshape and broadcastTo return views that alias their
// input's storage; consumers read them through strides and accumulate
// gradients straight into the base. contiguousCopy is the only op that
// materializes one.

/// Materialized contiguous copy node of any (possibly strided) tensor.
/// Backward scatters one gradient add per storage slot.
Tensor contiguousCopy(const Tensor& a);
/// `a` itself if already contiguous, else contiguousCopy(a).
Tensor asContiguous(const Tensor& a);
/// The [start, end) range along `axis` as a view (offset + unchanged
/// strides). A column slice of a matrix is row-strided, which the GEMM
/// kernels read in place via their leading dimension.
Tensor slice(const Tensor& a, int axis, long start, long end);
/// Same elements under `newShape` as a row-major view. A non-contiguous
/// input is first materialized with asContiguous.
Tensor reshape(const Tensor& a, Shape newShape);
/// Broadcast `a` to `target` as a stride-0 view (numpy right-aligned).
Tensor broadcastTo(const Tensor& a, const Shape& target);

// --- shape manipulation -----------------------------------------------------
/// Concatenate along `axis`; all other dims must match.
Tensor cat(const std::vector<Tensor>& parts, int axis);
/// Last-axis permutation: y[..., i] = x[..., perm[i]]; perm must be a
/// bijection on [0, lastDim). Used for the voxel-shuffle deconvolution and
/// for the INN's fixed channel permutations.
Tensor permuteLast(const Tensor& a, const std::vector<long>& perm);

// --- point-cloud kernels ----------------------------------------------------
/// Symmetric Chamfer distance between batched point clouds
/// a:[B,N,D], b:[B,M,D]:
///   CD = mean_B ( mean_n min_m ||a-b||^2 + mean_m min_n ||a-b||^2 ).
/// This is the VAE reconstruction loss L_CD of Eq.(1).
Tensor chamferDistance(const Tensor& a, const Tensor& b);

/// Pairwise squared euclidean distances between row sets x:[N,D], y:[M,D]
/// -> [N,M]; differentiable composite (used by the MMD losses).
Tensor pairwiseSquaredDistances(const Tensor& x, const Tensor& y);

}  // namespace artsci::ml
