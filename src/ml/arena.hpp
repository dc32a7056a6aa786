/// \file arena.hpp
/// Per-step bump allocator for autograd node storage.
///
/// The training graph has a *fixed topology*: every iteration builds the
/// same sequence of result nodes with the same shapes. A general-purpose
/// heap re-discovers that fact the hard way — one malloc (+ one more for
/// the grad) per node per step. The Arena instead hands out offsets from a
/// step-lifetime region that `beginStep()` resets in O(1), and records the
/// allocation sequence as a *plan*: after one warm-up step the region is
/// sized, every subsequent step replays the identical offsets, and
/// `stats().heapAllocations` stops moving — the proof (CI-gated in
/// bench_micro_ops --acceptance) that steady-state steps grow no region.
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
    std::uint64_t planLength = 0;       ///< allocations in the recorded plan
    std::uint64_t planReplays = 0;      ///< steps that replayed the plan exactly
    std::uint64_t planDeviations = 0;   ///< steps that diverged (re-recorded)
    std::size_t dataBytesPeak = 0;      ///< high-water data region bytes
    std::size_t gradBytesPeak = 0;      ///< high-water grad region bytes
  };

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Start a step: O(1) reset of both regions, one bulk zero of the grad
  /// region up to its high-water mark, plan bookkeeping. Memory handed out
  /// before this call is invalidated — tensors from the previous step must
  /// not be read afterwards.
  void beginStep();

  /// `n` Reals of *uninitialized* step-lifetime storage.
  Real* allocData(long n);
  /// `n` Reals of *zeroed* step-lifetime storage (gradient buffers).
  Real* allocGrad(long n);

  /// Snapshot of the counters, including the still-open step: a fully
  /// replayed (or deviated) in-flight step is counted as if beginStep had
  /// already closed it, so callers can read honest numbers right after a
  /// step's work without issuing another beginStep.
  Stats stats() const;
  /// Total bytes currently reserved across both regions.
  std::size_t reservedBytes() const;
  /// Drop all reserved memory and the recorded plan (tests).
  void releaseMemory();

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
  void recordOrCheck(std::int64_t key);

  Region data_;
  Region grad_;

  // Plan: the (region, size) sequence of one full step, re-recorded after
  // any deviation. Encoded as (n << 1) | isGrad.
  std::vector<std::int64_t> plan_;
  std::size_t planPos_ = 0;
  bool recording_ = true;
  bool deviated_ = false;
  bool stepOpen_ = false;

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
