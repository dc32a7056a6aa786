/// \file tensor.hpp
/// Dense row-major tensor with reverse-mode automatic differentiation.
///
/// This is the substrate standing in for PyTorch in the paper's MLapp.
/// Design: a value-semantic `Tensor` handle over a shared `TensorImpl`
/// node. Operations (ml/ops.hpp) build a dynamic graph; `backward()` on a
/// scalar result topologically sorts the graph and accumulates gradients.
/// Scalars are double: CPU throughput is not the bottleneck at the scales
/// we train, and double precision makes finite-difference gradient checks
/// in the test-suite exact to ~1e-8.
///
/// Storage model. A node's elements live in exactly one of three places:
///  - heap vectors (`data`/`grad`) — every leaf (parameters, batches) and
///    any result built outside an ArenaScope. The `data()`/`grad()`
///    vector accessors only work here, which keeps the optimizer,
///    serialization, DDP parameter broadcast, and tests on the same API
///    they always had.
///  - an Arena (`arenaData`/`arenaGrad`) — results built under an
///    ArenaScope get step-lifetime bump storage; see ml/arena.hpp.
///  - another node (`viewBase` + `offset`/`strides`) — zero-copy views
///    produced by transpose2d / slice / reshape / broadcastTo. Views have
///    parents (so autograd reaches them) but no backwardFn: consumers
///    accumulate straight into the aliased base gradient. Only
///    contiguousCopy materializes a view; tests/ml/reference_graph.hpp
///    builds the copy-per-view formulation from it and checks that both
///    produce the same bits.
///
/// `dataPtr()`/`gradPtr()` resolve the active storage per call; all ops
/// go through them. Strided (non-contiguous) tensors are handled by the
/// same physical-stride machinery that already served broadcasting.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/arena.hpp"
#include "ml/shape.hpp"

namespace artsci::ml {

using Real = double;

/// Product of dimensions (1 for rank-0/empty shape).
long numelOf(const Shape& shape);

/// "[2, 3, 4]" — for error messages.
std::string shapeToString(const Shape& shape);

struct TensorImpl {
  Shape shape;
  Strides strides;        ///< element strides; stride 0 = broadcast axis
  long offset = 0;        ///< element offset into the owning storage
  long numel_ = 0;        ///< product of shape (logical element count)
  bool contiguous = true; ///< strides == rowMajorStrides(shape)

  std::vector<Real> data;  ///< heap storage (owners only)
  std::vector<Real> grad;  ///< heap grad, same length as data once touched
  std::shared_ptr<TensorImpl> viewBase;  ///< storage owner if this is a view
  Arena* arena = nullptr;                ///< step arena if arena-backed
  Real* arenaData = nullptr;
  Real* arenaGrad = nullptr;

  bool requiresGrad = false;
  /// Last backward() traversal that visited this node (0 = never); the
  /// topological sort's visited test is one epoch compare.
  std::uint64_t visitMark = 0;
  std::vector<std::shared_ptr<TensorImpl>> parents;
  /// Propagates this node's grad into its parents' grads. The node itself
  /// is passed as argument to avoid a shared_ptr self-capture cycle.
  std::function<void(TensorImpl&)> backwardFn;
  const char* opName = "leaf";

  long numel() const { return numel_; }
  bool isView() const { return viewBase != nullptr; }

  /// Base address of this node's elements (views: base storage + offset;
  /// apply `strides` for non-contiguous access).
  Real* dataPtr() {
    if (viewBase) return viewBase->dataPtr() + offset;
    if (arena) return arenaData;
    return data.data();
  }
  const Real* dataPtr() const {
    return const_cast<TensorImpl*>(this)->dataPtr();
  }

  /// Base address of the gradient; only valid after ensureGrad() ran on
  /// this node (or its view base).
  Real* gradPtr() {
    if (viewBase) return viewBase->gradPtr() + offset;
    if (arena) return arenaGrad;
    return grad.data();
  }

  /// Materialize (and zero) the gradient buffer if absent. Views delegate
  /// to their storage owner; arena nodes take pre-zeroed arena storage
  /// (one bulk memset per step instead of per-node assigns); heap nodes
  /// keep the original assign-on-size-mismatch behavior.
  void ensureGrad() {
    if (viewBase) {
      viewBase->ensureGrad();
      return;
    }
    if (arena) {
      if (!arenaGrad) arenaGrad = arena->allocGrad(numel_);
      return;
    }
    if (grad.size() != data.size()) grad.assign(data.size(), Real(0));
  }
};

class Tensor {
 public:
  Tensor() = default;  ///< undefined tensor

  /// Leaf constructors (always heap-backed, never arena) -----------------
  static Tensor zeros(Shape shape, bool requiresGrad = false);
  static Tensor full(Shape shape, Real value, bool requiresGrad = false);
  static Tensor fromVector(Shape shape, std::vector<Real> values,
                           bool requiresGrad = false);
  /// i.i.d. N(0, stddev^2) entries.
  static Tensor randn(Shape shape, Rng& rng, Real stddev = Real(1),
                      bool requiresGrad = false);
  /// Scalar (rank-0 represented as shape {1}).
  static Tensor scalar(Real value, bool requiresGrad = false);

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const { return impl()->shape; }
  const Strides& strides() const { return impl()->strides; }
  int ndim() const { return static_cast<int>(shape().size()); }
  long dim(int i) const;
  long numel() const { return impl()->numel(); }
  bool isView() const { return impl()->isView(); }
  bool isContiguous() const { return impl()->contiguous; }

  /// Heap vector accessors — valid only for heap-owning tensors (leaves,
  /// params, results built outside an ArenaScope). Views and arena nodes
  /// trip the guard: use dataPtr()/toVector() there.
  std::vector<Real>& data() {
    TensorImpl* im = impl();
    ARTSCI_EXPECTS_MSG(!im->viewBase && !im->arena,
                       "data(): vector access on " << im->opName
                           << " (view/arena tensor) — use dataPtr()");
    return im->data;
  }
  const std::vector<Real>& data() const {
    return const_cast<Tensor*>(this)->data();
  }
  std::vector<Real>& grad() {
    TensorImpl* im = impl();
    ARTSCI_EXPECTS_MSG(!im->viewBase && !im->arena,
                       "grad(): vector access on " << im->opName
                           << " (view/arena tensor) — use gradPtr()");
    return im->grad;
  }
  const std::vector<Real>& grad() const {
    return const_cast<Tensor*>(this)->grad();
  }

  Real* dataPtr() { return impl()->dataPtr(); }
  const Real* dataPtr() const { return impl()->dataPtr(); }
  Real* gradPtr() const { return impl()->gradPtr(); }

  /// Logical-order copy of the elements (strided gather for views).
  std::vector<Real> toVector() const;

  bool requiresGrad() const { return impl()->requiresGrad; }
  Tensor& setRequiresGrad(bool value) {
    impl()->requiresGrad = value;
    return *this;
  }

  /// Value of a single-element tensor.
  Real item() const;

  /// Element access by logical flat index (bounds-checked, stride-aware).
  Real at(long flatIndex) const;

  /// Run reverse-mode AD from this scalar; accumulates into .grad() of all
  /// reachable tensors with requiresGrad.
  void backward();

  /// Zero this tensor's gradient buffer (allocating it if needed).
  void zeroGrad();

  /// A leaf copy sharing no graph history (fresh contiguous heap buffer).
  Tensor detach() const;

  std::shared_ptr<TensorImpl> impl_;

  TensorImpl* impl() const {
    ARTSCI_EXPECTS_MSG(impl_ != nullptr, "use of undefined Tensor");
    return impl_.get();
  }
};

/// Construct a non-leaf result node (contiguous; arena-backed when an
/// ArenaScope is active on this thread). Parents keep the graph alive.
Tensor makeResult(Shape shape, std::vector<Tensor> parents,
                  const char* opName);

/// Construct a zero-copy view of `src`: same storage, new shape/strides,
/// `offset` extra elements past src's own offset. View chains collapse —
/// the new node aliases src's ultimate storage owner directly.
Tensor makeView(const Tensor& src, Shape shape, Strides strides, long offset,
                const char* opName);

}  // namespace artsci::ml
