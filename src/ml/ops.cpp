#include "ml/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "ml/kernels/gemm.hpp"

namespace artsci::ml {

// The kernel library is dependency-free and declares its own scalar type;
// the two must agree for the raw-buffer calls below.
static_assert(std::is_same_v<Real, kernels::Real>,
              "ml::Real and kernels::Real diverged");
// Training and serving hand ml::Activation to the kernels as a
// static_cast, so the enum layouts must stay in lockstep.
static_assert(static_cast<int>(Activation::kNone) ==
                      static_cast<int>(kernels::Act::kNone) &&
                  static_cast<int>(Activation::kRelu) ==
                      static_cast<int>(kernels::Act::kRelu) &&
                  static_cast<int>(Activation::kLeakyRelu) ==
                      static_cast<int>(kernels::Act::kLeakyRelu) &&
                  static_cast<int>(Activation::kTanh) ==
                      static_cast<int>(kernels::Act::kTanh),
              "ml::Activation and kernels::Act layouts diverged");

namespace {

/// Row-major traversal cursor yielding successive storage indices of an
/// input that broadcasts to `outShape` (right-aligned numpy semantics).
/// `inStrides` are the input's physical strides, so stride-0 broadcast
/// axes and view layouts are handled by the same arithmetic; the
/// per-element coordinate decomposition is amortized to counter
/// increments (a couple of adds per step), which is what makes
/// elementwise ops on strided views cost roughly the same as on dense
/// tensors.
class StridedCursor {
 public:
  StridedCursor(const Shape& outShape, const Shape& inShape,
                const Strides& inStrides)
      : shape_(outShape),
        eff_(outShape.size(), 0),
        counters_(outShape.size(), 0) {
    const int offset = static_cast<int>(outShape.size() - inShape.size());
    for (std::size_t d = 0; d < outShape.size(); ++d) {
      const int din = static_cast<int>(d) - offset;
      if (din >= 0 && inShape[static_cast<std::size_t>(din)] != 1)
        eff_[d] = inStrides[static_cast<std::size_t>(din)];
    }
  }
  /// Convenience for the non-broadcast case (same logical shape).
  StridedCursor(const Shape& shape, const Strides& strides)
      : StridedCursor(shape, shape, strides) {}

  /// Storage index of the current logical slot, then advance one slot.
  long next() {
    const long cur = idx_;
    for (int d = static_cast<int>(shape_.size()) - 1; d >= 0; --d) {
      const std::size_t du = static_cast<std::size_t>(d);
      idx_ += eff_[du];
      if (++counters_[du] < shape_[du]) return cur;
      idx_ -= eff_[du] * shape_[du];
      counters_[du] = 0;
    }
    return cur;
  }

 private:
  Shape shape_;
  Strides eff_;
  Shape counters_;
  long idx_ = 0;
};

bool sameShape(const Shape& a, const Shape& b) { return a == b; }

/// True if b's shape is an exact suffix of a's shape (fast bias-add path).
bool isSuffix(const Shape& a, const Shape& b) {
  if (b.size() > a.size()) return false;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b[b.size() - 1 - i] != a[a.size() - 1 - i]) return false;
  }
  return true;
}

/// ensureGrad + return base grad pointer, or nullptr if the parent
/// doesn't need grad. Index with the parent's physical strides.
Real* gradOf(const std::shared_ptr<TensorImpl>& p) {
  if (!p->requiresGrad) return nullptr;
  p->ensureGrad();
  return p->gradPtr();
}

/// Work threshold above which the GEMM kernels go OpenMP row-parallel
/// (the same gate the former naive loops used).
inline bool gemmParallel(long M, long N, long K) {
  return M * N * K > (1L << 16);
}

/// A 2-D tensor the GEMM kernels can read in place: unit inner stride and
/// non-overlapping rows (arbitrary leading dimension). Column-slice views
/// qualify; transposed views do not.
bool gemmCompatible(const TensorImpl& im) {
  return im.contiguous ||
         (im.shape.size() == 2 && im.strides[1] == 1 &&
          im.strides[0] >= im.shape[1]);
}

template <typename FwdOp, typename DA, typename DB>
Tensor binaryOp(const Tensor& a, const Tensor& b, const char* name, FwdOp fwd,
                DA dfdA, DB dfdB) {
  const Shape outShape = broadcastShapes(a.shape(), b.shape());
  Tensor out = makeResult(outShape, {a, b}, name);
  const long n = out.numel();
  const TensorImpl& ai = *a.impl();
  const TensorImpl& bi = *b.impl();
  const Real* ad = ai.dataPtr();
  const Real* bd = bi.dataPtr();
  Real* od = out.dataPtr();

  const bool aDense = ai.contiguous && sameShape(ai.shape, outShape);
  const bool bDense = bi.contiguous && sameShape(bi.shape, outShape);
  if (aDense && bDense) {
#pragma omp parallel for schedule(static) if (n > (1L << 14))
    for (long i = 0; i < n; ++i)
      od[i] = fwd(ad[i], bd[i]);
  } else if (aDense && bi.contiguous && isSuffix(outShape, bi.shape)) {
    const long bn = bi.numel_;
#pragma omp parallel for schedule(static) if (n > (1L << 14))
    for (long i = 0; i < n; ++i)
      od[i] = fwd(ad[i], bd[i % bn]);
  } else {
    StridedCursor ca(outShape, ai.shape, ai.strides);
    StridedCursor cb(outShape, bi.shape, bi.strides);
    for (long i = 0; i < n; ++i) od[i] = fwd(ad[ca.next()], bd[cb.next()]);
  }

  if (out.requiresGrad()) {
    auto pa = a.impl_;
    auto pb = b.impl_;
    out.impl_->backwardFn = [pa, pb, outShape, dfdA, dfdB](TensorImpl& self) {
      const long n2 = self.numel();
      Real* ga = gradOf(pa);
      Real* gb = gradOf(pb);
      const Real* ad2 = pa->dataPtr();
      const Real* bd2 = pb->dataPtr();
      const Real* sg = self.gradPtr();
      StridedCursor ca(outShape, pa->shape, pa->strides);
      StridedCursor cb(outShape, pb->shape, pb->strides);
      for (long i = 0; i < n2; ++i) {
        const long ia = ca.next();
        const long ib = cb.next();
        const Real av = ad2[ia];
        const Real bv = bd2[ib];
        const Real g = sg[i];
        if (ga) ga[ia] += g * dfdA(av, bv);
        if (gb) gb[ib] += g * dfdB(av, bv);
      }
    };
  }
  return out;
}

template <typename FwdOp, typename DOp>
Tensor unaryOp(const Tensor& a, const char* name, FwdOp fwd, DOp dfd) {
  Tensor out = makeResult(a.shape(), {a}, name);
  const long n = out.numel();
  const TensorImpl& ai = *a.impl();
  const Real* ad = ai.dataPtr();
  Real* od = out.dataPtr();
  if (ai.contiguous) {
#pragma omp parallel for schedule(static) if (n > (1L << 14))
    for (long i = 0; i < n; ++i) od[i] = fwd(ad[i]);
  } else {
    // Sequential: the strided path is taken by small view tensors where
    // the cursor beats a fork/join plus per-thread re-seeding.
    StridedCursor c(ai.shape, ai.strides);
    for (long i = 0; i < n; ++i) od[i] = fwd(ad[c.next()]);
  }
  if (out.requiresGrad()) {
    auto pa = a.impl_;
    out.impl_->backwardFn = [pa, dfd](TensorImpl& self) {
      Real* ga = gradOf(pa);
      if (!ga) return;
      const long n2 = self.numel();
      const Real* ad2 = pa->dataPtr();
      const Real* sg = self.gradPtr();
      const Real* sd = self.dataPtr();
      if (pa->contiguous) {
        for (long i = 0; i < n2; ++i) ga[i] += sg[i] * dfd(ad2[i], sd[i]);
      } else {
        StridedCursor c(pa->shape, pa->strides);
        for (long i = 0; i < n2; ++i) {
          const long ip = c.next();
          ga[ip] += sg[i] * dfd(ad2[ip], sd[i]);
        }
      }
    };
  }
  return out;
}

}  // namespace

Shape broadcastShapes(const Shape& a, const Shape& b) {
  const std::size_t nd = std::max(a.size(), b.size());
  Shape out(nd, 1);
  for (std::size_t i = 0; i < nd; ++i) {
    const long da = i < a.size() ? a[a.size() - 1 - i] : 1;
    const long db = i < b.size() ? b[b.size() - 1 - i] : 1;
    ARTSCI_CHECK_MSG(da == db || da == 1 || db == 1,
                     "cannot broadcast " << shapeToString(a) << " with "
                                         << shapeToString(b));
    out[nd - 1 - i] = std::max(da, db);
  }
  return out;
}

Tensor add(const Tensor& a, const Tensor& b) {
  return binaryOp(
      a, b, "add", [](Real x, Real y) { return x + y; },
      [](Real, Real) { return Real(1); }, [](Real, Real) { return Real(1); });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binaryOp(
      a, b, "sub", [](Real x, Real y) { return x - y; },
      [](Real, Real) { return Real(1); }, [](Real, Real) { return Real(-1); });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binaryOp(
      a, b, "mul", [](Real x, Real y) { return x * y; },
      [](Real, Real y) { return y; }, [](Real x, Real) { return x; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  return binaryOp(
      a, b, "div", [](Real x, Real y) { return x / y; },
      [](Real, Real y) { return Real(1) / y; },
      [](Real x, Real y) { return -x / (y * y); });
}

Tensor addScalar(const Tensor& a, Real s) {
  return unaryOp(
      a, "addScalar", [s](Real x) { return x + s; },
      [](Real, Real) { return Real(1); });
}

Tensor mulScalar(const Tensor& a, Real s) {
  return unaryOp(
      a, "mulScalar", [s](Real x) { return x * s; },
      [s](Real, Real) { return s; });
}

Tensor neg(const Tensor& a) { return mulScalar(a, Real(-1)); }

Tensor relu(const Tensor& a) {
  return unaryOp(
      a, "relu", [](Real x) { return x > 0 ? x : Real(0); },
      [](Real x, Real) { return x > 0 ? Real(1) : Real(0); });
}

Tensor leakyRelu(const Tensor& a, Real slope) {
  return unaryOp(
      a, "leakyRelu", [slope](Real x) { return x > 0 ? x : slope * x; },
      [slope](Real x, Real) { return x > 0 ? Real(1) : slope; });
}

Tensor tanhT(const Tensor& a) {
  return unaryOp(
      a, "tanh", [](Real x) { return std::tanh(x); },
      [](Real, Real y) { return Real(1) - y * y; });
}

Tensor expT(const Tensor& a) {
  return unaryOp(
      a, "exp", [](Real x) { return std::exp(x); },
      [](Real, Real y) { return y; });
}

Tensor square(const Tensor& a) {
  return unaryOp(
      a, "square", [](Real x) { return x * x; },
      [](Real x, Real) { return Real(2) * x; });
}

Tensor reciprocal(const Tensor& a) {
  return unaryOp(
      a, "reciprocal", [](Real x) { return Real(1) / x; },
      [](Real x, Real) { return Real(-1) / (x * x); });
}

Tensor matmul(const Tensor& a0, const Tensor& b0) {
  ARTSCI_EXPECTS_MSG(a0.ndim() == 2 && b0.ndim() == 2,
                     "matmul expects 2D tensors, got "
                         << shapeToString(a0.shape()) << " x "
                         << shapeToString(b0.shape()));
  // Row-strided A feeds the kernels via lda; anything else (e.g. a
  // transposed view) is materialized, reproducing the pre-view operand
  // buffer bit-for-bit — the kernels' per-element FP order (k-ascending
  // for nn/tn, fixed lane split for nt) must not change with layout.
  Tensor a = gemmCompatible(*a0.impl()) ? a0 : contiguousCopy(a0);
  Tensor b = b0.isContiguous() ? b0 : contiguousCopy(b0);
  const long M = a.dim(0), K = a.dim(1), K2 = b.dim(0), N = b.dim(1);
  ARTSCI_EXPECTS_MSG(K == K2, "matmul inner dims mismatch: "
                                  << shapeToString(a.shape()) << " x "
                                  << shapeToString(b.shape()));
  const long lda = a.isContiguous() ? K : a.strides()[0];
  Tensor out = makeResult({M, N}, {a, b}, "matmul");
  kernels::gemm_nn(a.dataPtr(), b.dataPtr(), out.dataPtr(), M, N, K,
                   /*accumulate=*/false, gemmParallel(M, N, K), lda);
  if (out.requiresGrad()) {
    auto pa = a.impl_;
    auto pb = b.impl_;
    out.impl_->backwardFn = [pa, pb, M, K, N, lda](TensorImpl& self) {
      const Real* G = self.gradPtr();
      const bool par = gemmParallel(M, N, K);
      // dA[M,K] += G[M,N] · B[K,N]ᵀ (dA rows strided like A's rows)
      if (Real* ga = gradOf(pa))
        kernels::gemm_nt(G, pb->dataPtr(), ga, M, K, N,
                         /*accumulate=*/true, par, /*ldc=*/lda);
      // dB[K,N] += A[M,K]ᵀ · G[M,N]
      if (Real* gb = gradOf(pb))
        kernels::gemm_tn(pa->dataPtr(), G, gb, K, N, M,
                         /*accumulate=*/true, par, /*strideA=*/lda);
    };
  }
  return out;
}

Tensor linear(const Tensor& x0, const Tensor& w, const Tensor& bias,
              Activation act) {
  ARTSCI_EXPECTS_MSG(x0.ndim() == 2 && w.ndim() == 2,
                     "linear expects 2D tensors, got "
                         << shapeToString(x0.shape()) << " x "
                         << shapeToString(w.shape()));
  Tensor x = gemmCompatible(*x0.impl()) ? x0 : contiguousCopy(x0);
  Tensor wc = w.isContiguous() ? w : contiguousCopy(w);
  const long M = x.dim(0), K = x.dim(1), N = wc.dim(1);
  ARTSCI_EXPECTS_MSG(wc.dim(0) == K, "linear inner dims mismatch: "
                                         << shapeToString(x.shape()) << " x "
                                         << shapeToString(wc.shape()));
  const long lda = x.isContiguous() ? K : x.strides()[0];
  const bool hasBias = bias.defined();
  if (hasBias)
    ARTSCI_EXPECTS_MSG(bias.ndim() == 1 && bias.dim(0) == N,
                       "linear bias must be [" << N << "], got "
                                               << shapeToString(bias.shape()));
  Tensor out = hasBias ? makeResult({M, N}, {x, wc, bias}, "linear")
                       : makeResult({M, N}, {x, wc}, "linear");
  const auto kact = static_cast<kernels::Act>(act);
  // The serving epilogue: k-ascending GEMM, then the bias, then the
  // activation — the sequence matmul, add and the activation node produced.
  kernels::linear_forward(x.dataPtr(), wc.dataPtr(),
                          hasBias ? bias.dataPtr() : nullptr, out.dataPtr(),
                          M, K, N, kact, gemmParallel(M, N, K), lda);
  if (out.requiresGrad()) {
    auto px = x.impl_;
    auto pw = wc.impl_;
    auto pb = hasBias ? bias.impl_ : nullptr;
    out.impl_->backwardFn = [px, pw, pb, M, K, N, lda,
                             kact](TensorImpl& self) {
      const Real* G = self.gradPtr();
      const bool par2 = gemmParallel(M, N, K);
      // Pre-activation gradient: g * act'(out), exactly what the separate
      // activation node accumulated into the matmul result's grad. Step
      // scratch comes from the arena when one is active (recorded in the
      // step plan like any other allocation).
      std::vector<Real> scratch;
      if (kact != kernels::Act::kNone) {
        const long total = M * N;
        Real* gp;
        if (Arena* ar = currentArena()) {
          gp = ar->allocData(total);
        } else {
          scratch.resize(static_cast<std::size_t>(total));
          gp = scratch.data();
        }
        kernels::activation_grad(G, self.dataPtr(), gp, total, kact);
        G = gp;
      }
      if (Real* gx = gradOf(px))
        kernels::gemm_nt(G, pw->dataPtr(), gx, M, K, N,
                         /*accumulate=*/true, par2, /*ldc=*/lda);
      if (Real* gw = gradOf(pw))
        kernels::gemm_tn(px->dataPtr(), G, gw, K, N, M,
                         /*accumulate=*/true, par2, /*strideA=*/lda);
      if (pb)
        if (Real* gb = gradOf(pb))
          kernels::colsum(G, gb, M, N, /*accumulate=*/true);
    };
  }
  return out;
}

Tensor transpose2d(const Tensor& a) {
  ARTSCI_EXPECTS(a.ndim() == 2);
  const Strides& s = a.strides();
  return makeView(a, Shape{a.dim(1), a.dim(0)}, Strides{s[1], s[0]}, 0,
                  "transposeView");
}

Tensor contiguousCopy(const Tensor& a) {
  Tensor out = makeResult(a.shape(), {a}, "contiguous");
  const TensorImpl& ai = *a.impl();
  const Real* ad = ai.dataPtr();
  Real* od = out.dataPtr();
  const long n = out.numel();
  if (ai.contiguous) {
    std::memcpy(od, ad, sizeof(Real) * static_cast<std::size_t>(n));
  } else {
    StridedCursor c(ai.shape, ai.strides);
    for (long i = 0; i < n; ++i) od[i] = ad[c.next()];
  }
  if (out.requiresGrad()) {
    auto pa = a.impl_;
    out.impl_->backwardFn = [pa](TensorImpl& self) {
      Real* ga = gradOf(pa);
      if (!ga) return;
      const long n2 = self.numel();
      const Real* sg = self.gradPtr();
      if (pa->contiguous) {
        for (long i = 0; i < n2; ++i) ga[i] += sg[i];
      } else {
        StridedCursor c(pa->shape, pa->strides);
        for (long i = 0; i < n2; ++i) ga[c.next()] += sg[i];
      }
    };
  }
  return out;
}

Tensor asContiguous(const Tensor& a) {
  return a.isContiguous() ? a : contiguousCopy(a);
}

Tensor sumAll(const Tensor& a) {
  Tensor out = makeResult({1}, {a}, "sumAll");
  const TensorImpl& ai = *a.impl();
  const Real* ad = ai.dataPtr();
  Real s = Real(0);
  if (ai.contiguous) {
    for (long i = 0; i < ai.numel_; ++i) s += ad[i];
  } else {
    StridedCursor c(ai.shape, ai.strides);
    for (long i = 0; i < ai.numel_; ++i) s += ad[c.next()];
  }
  out.dataPtr()[0] = s;
  if (out.requiresGrad()) {
    auto pa = a.impl_;
    out.impl_->backwardFn = [pa](TensorImpl& self) {
      Real* ga = gradOf(pa);
      if (!ga) return;
      const Real g = self.gradPtr()[0];
      const long n = pa->numel_;
      if (pa->contiguous) {
        for (long i = 0; i < n; ++i) ga[i] += g;
      } else {
        StridedCursor c(pa->shape, pa->strides);
        for (long i = 0; i < n; ++i) ga[c.next()] += g;
      }
    };
  }
  return out;
}

Tensor meanAll(const Tensor& a) {
  return mulScalar(sumAll(a), Real(1) / static_cast<Real>(a.numel()));
}

namespace {
/// Decompose shape around `axis`: outer (product before), len (axis), inner
/// (product after). Works for any rank >= 1.
void axisSplit(const Shape& s, int axis, long& outer, long& len,
               long& inner) {
  outer = 1;
  inner = 1;
  for (int i = 0; i < axis; ++i) outer *= s[static_cast<std::size_t>(i)];
  len = s[static_cast<std::size_t>(axis)];
  for (std::size_t i = static_cast<std::size_t>(axis) + 1; i < s.size(); ++i)
    inner *= s[i];
}

Shape dropAxis(const Shape& s, int axis, bool keepdim) {
  Shape out = s;
  if (keepdim) {
    out[static_cast<std::size_t>(axis)] = 1;
  } else {
    out.erase(out.begin() + axis);
    if (out.empty()) out = {1};
  }
  return out;
}
}  // namespace

Tensor sumAxis(const Tensor& a0, int axis, bool keepdim) {
  Tensor a = asContiguous(a0);
  if (axis < 0) axis += a.ndim();
  ARTSCI_EXPECTS(axis >= 0 && axis < a.ndim());
  long outer = 0, len = 0, inner = 0;
  axisSplit(a.shape(), axis, outer, len, inner);
  Tensor out = makeResult(dropAxis(a.shape(), axis, keepdim), {a}, "sumAxis");
  const Real* ad = a.dataPtr();
  Real* od = out.dataPtr();
  for (long o = 0; o < outer; ++o) {
    for (long i = 0; i < inner; ++i) {
      Real s = Real(0);
      for (long l = 0; l < len; ++l) s += ad[(o * len + l) * inner + i];
      od[o * inner + i] = s;
    }
  }
  if (out.requiresGrad()) {
    auto pa = a.impl_;
    out.impl_->backwardFn = [pa, outer, len, inner](TensorImpl& self) {
      Real* ga = gradOf(pa);
      if (!ga) return;
      const Real* sg = self.gradPtr();
      for (long o = 0; o < outer; ++o)
        for (long l = 0; l < len; ++l)
          for (long i = 0; i < inner; ++i)
            ga[(o * len + l) * inner + i] += sg[o * inner + i];
    };
  }
  return out;
}

Tensor maxAxis(const Tensor& a0, int axis, bool keepdim) {
  Tensor a = asContiguous(a0);
  if (axis < 0) axis += a.ndim();
  ARTSCI_EXPECTS(axis >= 0 && axis < a.ndim());
  long outer = 0, len = 0, inner = 0;
  axisSplit(a.shape(), axis, outer, len, inner);
  Tensor out = makeResult(dropAxis(a.shape(), axis, keepdim), {a}, "maxAxis");
  std::vector<long> argmax(static_cast<std::size_t>(outer * inner), 0);
  const Real* ad = a.dataPtr();
  Real* od = out.dataPtr();
  long* am = argmax.data();
  // The reduced axis runs outside and the contiguous inner axis inside:
  // each l-step folds one row into the running maxima with selects. Strict
  // `>` with l ascending keeps the first maximum. The index select and the
  // max are separate passes (the index pass reads the maxima before the
  // row), since GCC vectorizes neither when one comparison feeds both.
  // Tasks are (outer, inner chunk) pairs, so large shapes split even when
  // outer is 1; every output element is one task's, whatever the team.
  constexpr long kInnerChunk = 512;
  const long chunks = (inner + kInnerChunk - 1) / kInnerChunk;
#pragma omp parallel for schedule(static) if (outer * inner > (1L << 12))
  for (long t = 0; t < outer * chunks; ++t) {
    const long o = t / chunks;
    const long i0 = (t % chunks) * kInnerChunk;
    const long width = std::min(kInnerChunk, inner - i0);
    const Real* __restrict src = ad + o * len * inner + i0;
    Real* __restrict best = od + o * inner + i0;
    long* __restrict bestL = am + o * inner + i0;
    for (long i = 0; i < width; ++i) {
      best[i] = src[i];
      bestL[i] = 0;
    }
    for (long l = 1; l < len; ++l) {
      const Real* __restrict row = src + l * inner;
      for (long i = 0; i < width; ++i)
        bestL[i] = row[i] > best[i] ? l : bestL[i];
      for (long i = 0; i < width; ++i)
        best[i] = row[i] > best[i] ? row[i] : best[i];
    }
  }
  if (out.requiresGrad()) {
    auto pa = a.impl_;
    out.impl_->backwardFn = [pa, argmax = std::move(argmax), inner,
                             len](TensorImpl& self) {
      Real* ga = gradOf(pa);
      if (!ga) return;
      const Real* sg = self.gradPtr();
      const long total = self.numel();
      for (long oi = 0; oi < total; ++oi) {
        const long o = oi / inner;
        const long i = oi % inner;
        const long l = argmax[static_cast<std::size_t>(oi)];
        ga[(o * len + l) * inner + i] += sg[oi];
      }
    };
  }
  return out;
}

Tensor slice(const Tensor& a, int axis, long start, long end) {
  const int nd = a.ndim();
  if (axis < 0) axis += nd;
  ARTSCI_EXPECTS(axis >= 0 && axis < nd);
  ARTSCI_EXPECTS_MSG(start >= 0 && end <= a.dim(axis) && start < end,
                     "slice range [" << start << ", " << end
                                     << ") out of bounds for axis size "
                                     << a.dim(axis));
  Shape outShape = a.shape();
  outShape[static_cast<std::size_t>(axis)] = end - start;
  const Strides& st = a.strides();
  return makeView(a, std::move(outShape), st,
                  start * st[static_cast<std::size_t>(axis)], "sliceView");
}

Tensor reshape(const Tensor& a, Shape newShape) {
  ARTSCI_EXPECTS_MSG(numelOf(newShape) == a.numel(),
                     "reshape " << shapeToString(a.shape()) << " -> "
                                << shapeToString(newShape)
                                << " changes element count");
  Strides st = rowMajorStrides(newShape);
  return makeView(asContiguous(a), std::move(newShape), std::move(st), 0,
                  "reshapeView");
}

Tensor broadcastTo(const Tensor& a, const Shape& target) {
  const Shape check = broadcastShapes(a.shape(), target);
  ARTSCI_EXPECTS_MSG(check == target, "cannot broadcast "
                                          << shapeToString(a.shape())
                                          << " to " << shapeToString(target));
  Strides st(target.size(), 0);
  const int off = static_cast<int>(target.size()) - a.ndim();
  for (int d = 0; d < a.ndim(); ++d) {
    const bool repeated = a.shape()[static_cast<std::size_t>(d)] == 1 &&
                          target[static_cast<std::size_t>(off + d)] != 1;
    st[static_cast<std::size_t>(off + d)] =
        repeated ? 0 : a.strides()[static_cast<std::size_t>(d)];
  }
  return makeView(a, target, std::move(st), 0, "broadcastView");
}

Tensor cat(const std::vector<Tensor>& parts0, int axis) {
  ARTSCI_EXPECTS(!parts0.empty());
  std::vector<Tensor> parts;
  parts.reserve(parts0.size());
  for (const auto& p : parts0) parts.push_back(asContiguous(p));
  const int nd = parts[0].ndim();
  if (axis < 0) axis += nd;
  ARTSCI_EXPECTS(axis >= 0 && axis < nd);
  Shape outShape = parts[0].shape();
  long axisTotal = 0;
  for (const auto& p : parts) {
    ARTSCI_EXPECTS(p.ndim() == nd);
    for (int d = 0; d < nd; ++d) {
      if (d != axis)
        ARTSCI_EXPECTS_MSG(p.dim(d) == outShape[static_cast<std::size_t>(d)],
                           "cat: incompatible shapes");
    }
    axisTotal += p.dim(axis);
  }
  outShape[static_cast<std::size_t>(axis)] = axisTotal;

  Tensor out = makeResult(outShape, parts, "cat");

  long outer = 0, lenOut = 0, inner = 0;
  axisSplit(outShape, axis, outer, lenOut, inner);
  Real* od = out.dataPtr();
  long axisOffset = 0;
  for (const auto& p : parts) {
    const long len = p.dim(axis);
    const Real* pd = p.dataPtr();
    for (long o = 0; o < outer; ++o) {
      const Real* src = pd + o * len * inner;
      Real* dst = od + (o * lenOut + axisOffset) * inner;
      std::memcpy(dst, src,
                  sizeof(Real) * static_cast<std::size_t>(len * inner));
    }
    axisOffset += len;
  }
  if (out.requiresGrad()) {
    std::vector<std::shared_ptr<TensorImpl>> impls;
    std::vector<long> lens;
    for (const auto& p : parts) {
      impls.push_back(p.impl_);
      lens.push_back(p.dim(axis));
    }
    out.impl_->backwardFn = [impls, lens, outer, lenOut,
                             inner](TensorImpl& self) {
      const Real* sg = self.gradPtr();
      long axisOffset2 = 0;
      for (std::size_t pi = 0; pi < impls.size(); ++pi) {
        const long len = lens[pi];
        if (Real* ga = gradOf(impls[pi])) {
          for (long o = 0; o < outer; ++o) {
            const Real* src = sg + (o * lenOut + axisOffset2) * inner;
            Real* dst = ga + o * len * inner;
            for (long i = 0; i < len * inner; ++i) dst[i] += src[i];
          }
        }
        axisOffset2 += len;
      }
    };
  }
  return out;
}

Tensor permuteLast(const Tensor& a0, const std::vector<long>& perm) {
  Tensor a = asContiguous(a0);
  const long L = a.dim(-1);
  ARTSCI_EXPECTS_MSG(static_cast<long>(perm.size()) == L,
                     "permuteLast: perm size " << perm.size()
                                               << " != last dim " << L);
  Tensor out = makeResult(a.shape(), {a}, "permuteLast");
  const long rows = a.numel() / L;
  const Real* ad = a.dataPtr();
  Real* od = out.dataPtr();
#pragma omp parallel for schedule(static) if (rows * L > (1L << 14))
  for (long r = 0; r < rows; ++r) {
    const Real* src = ad + r * L;
    Real* dst = od + r * L;
    for (long i = 0; i < L; ++i) dst[i] = src[perm[static_cast<std::size_t>(i)]];
  }
  if (out.requiresGrad()) {
    auto pa = a.impl_;
    out.impl_->backwardFn = [pa, perm, rows, L](TensorImpl& self) {
      Real* ga = gradOf(pa);
      if (!ga) return;
      const Real* sg = self.gradPtr();
      for (long r = 0; r < rows; ++r) {
        const Real* src = sg + r * L;
        Real* dst = ga + r * L;
        for (long i = 0; i < L; ++i)
          dst[perm[static_cast<std::size_t>(i)]] += src[i];
      }
    };
  }
  return out;
}

Tensor chamferDistance(const Tensor& a0, const Tensor& b0) {
  ARTSCI_EXPECTS_MSG(a0.ndim() == 3 && b0.ndim() == 3,
                     "chamferDistance expects [B,N,D] x [B,M,D]");
  Tensor a = asContiguous(a0);
  Tensor b = asContiguous(b0);
  const long B = a.dim(0), N = a.dim(1), D = a.dim(2);
  const long M = b.dim(1);
  ARTSCI_EXPECTS(b.dim(0) == B && b.dim(2) == D);
  Tensor out = makeResult({1}, {a, b}, "chamfer");

  // nearest-neighbour indices: for each a-point its closest b-point, and
  // vice versa. Stored for the backward pass.
  std::vector<long> nnAB(static_cast<std::size_t>(B * N));
  std::vector<long> nnBA(static_cast<std::size_t>(B * M));
  const Real* A = a.dataPtr();
  const Real* Bd = b.dataPtr();
  // Per-batch partials summed in index order afterwards: an OpenMP `+`
  // reduction combines in thread-arrival order, which is not run-invariant.
  std::vector<Real> partial(static_cast<std::size_t>(B));
  // Each cloud pair's N×M squared distances are computed once, one row
  // (fixed a-point i) at a time, and both directions read that row. The
  // target clouds are transposed to [B,D,M] so the row loop runs j
  // innermost over contiguous memory. Per-batch scratch: the row and the
  // running column minima.
  std::vector<Real> bT(static_cast<std::size_t>(B * D * M));
  for (long bi = 0; bi < B; ++bi)
    for (long j = 0; j < M; ++j)
      for (long d = 0; d < D; ++d)
        bT[static_cast<std::size_t>((bi * D + d) * M + j)] =
            Bd[(bi * M + j) * D + d];
  std::vector<Real> rowScratch(static_cast<std::size_t>(B * M));
  std::vector<Real> colScratch(static_cast<std::size_t>(B * M));

#pragma omp parallel for schedule(static)
  for (long bi = 0; bi < B; ++bi) {
    const Real* ab = A + bi * N * D;
    const Real* bt = bT.data() + bi * D * M;
    Real* __restrict d2 = rowScratch.data() + bi * M;
    Real* __restrict colBest = colScratch.data() + bi * M;
    long* __restrict colArg = nnBA.data() + bi * M;
    std::fill(colBest, colBest + M, Real(1e300));
    std::fill(colArg, colArg + M, 0L);
    Real sumA = Real(0);
    for (long i = 0; i < N; ++i) {
      // d2[j] sums its D squared differences in ascending d, as the
      // per-pair loop did (this file is built without FMA contraction).
      std::fill(d2, d2 + M, Real(0));
      for (long d = 0; d < D; ++d) {
        const Real x = ab[i * D + d];
        const Real* __restrict bd = bt + d * M;
        for (long j = 0; j < M; ++j) {
          const Real diff = x - bd[j];
          d2[j] += diff * diff;
        }
      }
      // a → b: the row's argmin, j ascending, strict `<` (first minimum
      // wins). Its branch is taken only when the minimum improves.
      Real best = Real(1e300);
      long bestJ = 0;
      for (long j = 0; j < M; ++j) {
        if (d2[j] < best) {
          best = d2[j];
          bestJ = j;
        }
      }
      nnAB[static_cast<std::size_t>(bi * N + i)] = bestJ;
      sumA += best;
      // b → a: fold the row into the running column argmins with selects
      // (index pass first, as in maxAxis); i ascends, and strict `<`
      // keeps the first minimum.
      for (long j = 0; j < M; ++j)
        colArg[j] = d2[j] < colBest[j] ? i : colArg[j];
      for (long j = 0; j < M; ++j)
        colBest[j] = d2[j] < colBest[j] ? d2[j] : colBest[j];
    }
    Real sumB = Real(0);
    for (long j = 0; j < M; ++j) sumB += colBest[j];
    partial[static_cast<std::size_t>(bi)] =
        sumA / static_cast<Real>(N) + sumB / static_cast<Real>(M);
  }
  Real total = Real(0);
  for (Real p : partial) total += p;
  out.dataPtr()[0] = total / static_cast<Real>(B);

  if (out.requiresGrad()) {
    auto pa = a.impl_;
    auto pb = b.impl_;
    out.impl_->backwardFn = [pa, pb, nnAB = std::move(nnAB),
                             nnBA = std::move(nnBA), B, N, M,
                             D](TensorImpl& self) {
      const Real g = self.gradPtr()[0] / static_cast<Real>(B);
      Real* ga = gradOf(pa);
      Real* gb = gradOf(pb);
      const Real* A2 = pa->dataPtr();
      const Real* B2 = pb->dataPtr();
      const Real wA = g / static_cast<Real>(N);
      const Real wB = g / static_cast<Real>(M);
      for (long bi = 0; bi < B; ++bi) {
        for (long i = 0; i < N; ++i) {
          const long j = nnAB[static_cast<std::size_t>(bi * N + i)];
          for (long d = 0; d < D; ++d) {
            const long ia = (bi * N + i) * D + d;
            const long ib = (bi * M + j) * D + d;
            const Real diff = Real(2) * (A2[ia] - B2[ib]);
            if (ga) ga[ia] += wA * diff;
            if (gb) gb[ib] -= wA * diff;
          }
        }
        for (long j = 0; j < M; ++j) {
          const long i = nnBA[static_cast<std::size_t>(bi * M + j)];
          for (long d = 0; d < D; ++d) {
            const long ia = (bi * N + i) * D + d;
            const long ib = (bi * M + j) * D + d;
            const Real diff = Real(2) * (B2[ib] - A2[ia]);
            if (gb) gb[ib] += wB * diff;
            if (ga) ga[ia] -= wB * diff;
          }
        }
      }
    };
  }
  return out;
}

Tensor pairwiseSquaredDistances(const Tensor& x, const Tensor& y) {
  ARTSCI_EXPECTS(x.ndim() == 2 && y.ndim() == 2);
  ARTSCI_EXPECTS(x.dim(1) == y.dim(1));
  // ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y — fully differentiable
  // composition, so no dedicated backward needed. transpose2d(y) is a
  // view; matmul materializes it (strides [1, D] are not row-strided),
  // which reproduces the old transposed copy buffer exactly, keeping the
  // gemm_nn bit pattern.
  Tensor xx = sumAxis(square(x), 1, /*keepdim=*/true);      // [N,1]
  Tensor yy = sumAxis(square(y), 1, /*keepdim=*/false);     // [M]
  Tensor cross = matmul(x, transpose2d(y));                 // [N,M]
  Tensor d2 = add(sub(xx, mulScalar(cross, Real(2))), yy);  // broadcasts
  // Numerical guard: tiny negatives from cancellation clip to zero.
  return relu(d2);
}

}  // namespace artsci::ml
