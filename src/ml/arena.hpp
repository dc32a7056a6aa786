/// \file arena.hpp
/// Per-step bump allocator for autograd node storage.
///
/// The training graph has a *fixed topology*: every iteration builds the
/// same sequence of result nodes with the same shapes. A general-purpose
/// heap re-discovers that fact the hard way — one malloc (+ one more for
/// the grad) per node per step. The Arena instead hands out offsets from a
/// step-lifetime region that `beginStep()` resets in O(1). The first step
/// sizes the regions and the next `beginStep()` merges their chunks into
/// one, so every later step of the same topology bumps the same offsets
/// and `stats().heapAllocations` stops moving (tests/ml/test_arena.cpp).
/// The arena covers tensor storage only: graph nodes (`TensorImpl`
/// blocks, their parent lists and backward closures) still come from
/// the heap.
///
/// Two regions:
///  - data: never zeroed. Every op in ml/ops.cpp fully overwrites its
///    result buffer, so the zero-fill the heap path performs (makeResult
///    via Tensor::zeros) is pure waste here.
///  - grad: zeroed ONCE per step, in bulk, up to the previous step's
///    high-water mark (one streaming memset) — replacing the per-node
///    `grad.assign` that re-touched every buffer inside backward().
///
/// Threading: arenas are single-threaded by design — one arena per trainer
/// rank / per serving engine. `ArenaScope` installs an arena as the
/// calling thread's current one; `makeResult` (tensor.cpp) consults
/// `currentArena()`. OpenMP worker threads inside kernels never allocate,
/// so they never observe the scope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace artsci::ml {

using Real = double;  // matches ml/tensor.hpp (alias re-declaration is ok)

class Arena {
 public:
  struct Stats {
    std::uint64_t steps = 0;            ///< beginStep() calls
    std::uint64_t heapAllocations = 0;  ///< region growths (actual mallocs)
  };

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Start a step: O(1) reset of both regions and one bulk zero of the
  /// grad region up to its high-water mark. Memory handed out before this
  /// call is invalidated — tensors from the previous step must not be read
  /// afterwards.
  void beginStep();

  /// `n` Reals of *uninitialized* step-lifetime storage.
  Real* allocData(long n);
  /// `n` Reals of *zeroed* step-lifetime storage (gradient buffers).
  Real* allocGrad(long n);

  Stats stats() const { return stats_; }

 private:
  struct Region {
    struct Chunk {
      std::unique_ptr<Real[]> mem;
      std::size_t cap = 0;  ///< elements
    };
    std::vector<Chunk> chunks;
    std::size_t chunk = 0;      ///< chunk currently bumped
    std::size_t used = 0;       ///< elements used in that chunk
    std::size_t stepTotal = 0;  ///< elements handed out this step
    std::size_t highWater = 0;  ///< max stepTotal ever observed
  };

  Real* bump(Region& r, std::size_t n, bool zeroed);
  void resetRegion(Region& r);

  Region data_;
  Region grad_;
  Stats stats_;
};

/// RAII: installs `arena` as the calling thread's current arena; restores
/// the previous one (usually none) on destruction.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* previous_;
};

/// The calling thread's active arena, or nullptr (heap-backed tensors).
Arena* currentArena();

}  // namespace artsci::ml
