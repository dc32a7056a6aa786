#include "ml/tensor.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>

namespace artsci::ml {

long numelOf(const Shape& shape) {
  long n = 1;
  for (long d : shape) {
    ARTSCI_EXPECTS_MSG(d > 0, "non-positive dimension in shape "
                                  << shapeToString(shape));
    n *= d;
  }
  return n;
}

std::string shapeToString(const Shape& shape) {
  std::ostringstream os;
  os << shape;
  return os.str();
}

namespace {
/// Shared tail of the leaf constructors: stride/numel bookkeeping for a
/// freshly built contiguous heap owner.
void finishOwned(TensorImpl& im, Shape shape, long n) {
  im.strides = rowMajorStrides(shape);
  im.shape = std::move(shape);
  im.numel_ = n;
  im.contiguous = true;
}
}  // namespace

Tensor Tensor::zeros(Shape shape, bool requiresGrad) {
  return full(std::move(shape), Real(0), requiresGrad);
}

Tensor Tensor::full(Shape shape, Real value, bool requiresGrad) {
  Tensor t;
  t.impl_ = std::make_shared<TensorImpl>();
  const long n = numelOf(shape);
  t.impl_->data.assign(static_cast<std::size_t>(n), value);
  finishOwned(*t.impl_, std::move(shape), n);
  t.impl_->requiresGrad = requiresGrad;
  return t;
}

Tensor Tensor::fromVector(Shape shape, std::vector<Real> values,
                          bool requiresGrad) {
  ARTSCI_EXPECTS_MSG(
      numelOf(shape) == static_cast<long>(values.size()),
      "fromVector: shape " << shapeToString(shape) << " needs "
                           << numelOf(shape) << " values, got "
                           << values.size());
  Tensor t;
  t.impl_ = std::make_shared<TensorImpl>();
  const long n = static_cast<long>(values.size());
  t.impl_->data = std::move(values);
  finishOwned(*t.impl_, std::move(shape), n);
  t.impl_->requiresGrad = requiresGrad;
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, Real stddev, bool requiresGrad) {
  Tensor t = zeros(std::move(shape), requiresGrad);
  for (Real& v : t.data()) v = static_cast<Real>(rng.normal()) * stddev;
  return t;
}

Tensor Tensor::scalar(Real value, bool requiresGrad) {
  return full({1}, value, requiresGrad);
}

long Tensor::dim(int i) const {
  const auto& s = shape();
  if (i < 0) i += static_cast<int>(s.size());
  ARTSCI_EXPECTS(i >= 0 && i < static_cast<int>(s.size()));
  return s[static_cast<std::size_t>(i)];
}

Real Tensor::item() const {
  ARTSCI_EXPECTS_MSG(numel() == 1, "item() on tensor of shape "
                                       << shapeToString(shape()));
  // Logical flat index 0 maps to storage offset 0 under any strides.
  return impl()->dataPtr()[0];
}

Real Tensor::at(long flatIndex) const {
  ARTSCI_EXPECTS(flatIndex >= 0 && flatIndex < numel());
  const TensorImpl* im = impl();
  const long idx = im->contiguous
                       ? flatIndex
                       : logicalToStorage(im->shape, im->strides, flatIndex);
  return im->dataPtr()[idx];
}

std::vector<Real> Tensor::toVector() const {
  const TensorImpl* im = impl();
  std::vector<Real> out(static_cast<std::size_t>(im->numel_));
  const Real* src = im->dataPtr();
  if (im->contiguous) {
    std::copy(src, src + im->numel_, out.begin());
  } else {
    for (long i = 0; i < im->numel_; ++i)
      out[static_cast<std::size_t>(i)] =
          src[logicalToStorage(im->shape, im->strides, i)];
  }
  return out;
}

void Tensor::zeroGrad() {
  TensorImpl* im = impl();
  im->ensureGrad();
  Real* g = im->gradPtr();
  if (im->contiguous) {
    std::fill(g, g + im->numel_, Real(0));
  } else {
    for (long i = 0; i < im->numel_; ++i)
      g[logicalToStorage(im->shape, im->strides, i)] = Real(0);
  }
}

Tensor Tensor::detach() const {
  Tensor t;
  t.impl_ = std::make_shared<TensorImpl>();
  t.impl_->data = toVector();
  finishOwned(*t.impl_, shape(), numel());
  return t;
}

namespace {
/// Monotone traversal-epoch source for the visitMark-based topo sort.
/// Atomic only so independent graphs may run backward() concurrently
/// (e.g. DDP ranks); nodes of one graph are never shared across threads.
std::atomic<std::uint64_t> gVisitEpoch{0};
}  // namespace

void Tensor::backward() {
  ARTSCI_EXPECTS_MSG(numel() == 1, "backward() requires a scalar loss");
  // Iterative post-order DFS to get a topological order. Visited nodes
  // are marked with a per-traversal epoch stamped on the node itself, so
  // the visited test is one compare instead of a hash-set lookup.
  std::vector<TensorImpl*> topo;
  struct Frame {
    TensorImpl* node;
    std::size_t nextParent;
  };
  std::vector<Frame> stack;
  stack.push_back({impl(), 0});
  const std::uint64_t epoch =
      gVisitEpoch.fetch_add(1, std::memory_order_relaxed) + 1;
  impl()->visitMark = epoch;
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.nextParent < f.node->parents.size()) {
      TensorImpl* p = f.node->parents[f.nextParent++].get();
      if (p->visitMark != epoch) {
        p->visitMark = epoch;
        stack.push_back({p, 0});
      }
    } else {
      topo.push_back(f.node);
      stack.pop_back();
    }
  }
  // Seed and propagate in reverse topological order. View nodes have no
  // backwardFn — their consumers already accumulated into the aliased
  // base gradient, which runs its own backwardFn later in the order.
  impl()->ensureGrad();
  impl()->gradPtr()[0] = Real(1);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backwardFn && node->requiresGrad) {
      node->ensureGrad();
      node->backwardFn(*node);
    }
  }
}

Tensor makeResult(Shape shape, std::vector<Tensor> parents,
                  const char* opName) {
  Tensor t;
  t.impl_ = std::make_shared<TensorImpl>();
  TensorImpl* im = t.impl_.get();
  const long n = numelOf(shape);
  if (Arena* a = currentArena()) {
    // Uninitialized step storage: every op in ml/ops.cpp fully overwrites
    // its result before anything reads it, so the heap path's zero-fill
    // is pure memory traffic.
    im->arena = a;
    im->arenaData = a->allocData(n);
  } else {
    im->data.assign(static_cast<std::size_t>(n), Real(0));
  }
  finishOwned(*im, std::move(shape), n);
  bool needsGrad = false;
  im->parents.reserve(parents.size());
  for (auto& p : parents) {
    needsGrad = needsGrad || p.requiresGrad();
    im->parents.push_back(p.impl_);
  }
  im->requiresGrad = needsGrad;
  im->opName = opName;
  return t;
}

Tensor makeView(const Tensor& src, Shape shape, Strides strides, long offset,
                const char* opName) {
  Tensor t;
  t.impl_ = std::make_shared<TensorImpl>();
  TensorImpl* im = t.impl_.get();
  TensorImpl* s = src.impl();
  im->numel_ = numelOf(shape);
  im->contiguous = (strides == rowMajorStrides(shape));
  im->shape = std::move(shape);
  im->strides = std::move(strides);
  im->offset = s->offset + offset;
  // Collapse view chains: always alias the ultimate storage owner, so
  // dataPtr() is one hop regardless of how the view was built.
  im->viewBase = s->viewBase ? s->viewBase : src.impl_;
  im->parents.push_back(src.impl_);
  im->requiresGrad = s->requiresGrad;
  im->opName = opName;
  return t;
}

}  // namespace artsci::ml
