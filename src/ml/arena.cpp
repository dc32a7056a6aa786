#include "ml/arena.hpp"

#include <algorithm>
#include <cstring>

namespace artsci::ml {

namespace {
/// First chunk is at least this many elements (64 KiB) so tiny graphs
/// don't fragment into many chunks during warm-up.
constexpr std::size_t kMinChunkElems = std::size_t(1) << 13;

thread_local Arena* tCurrentArena = nullptr;
}  // namespace

void Arena::resetRegion(Region& r) {
  r.highWater = std::max(r.highWater, r.stepTotal);
  // Consolidate: after a growth step, replace the chunk list with one
  // chunk covering the whole high-water footprint. Steady state is then a
  // single chunk per region, so repeated steps bump identical offsets and
  // never touch the heap.
  if (r.chunks.size() > 1) {
    std::size_t total = 0;
    for (const auto& c : r.chunks) total += c.cap;
    Region::Chunk merged;
    merged.cap = total;
    // Born zeroed: keeps the invariant that grad-region memory beyond the
    // written range is always clean, so the only zeroing a steady-state
    // step ever does is beginStep's single bulk memset.
    merged.mem = std::unique_ptr<Real[]>(new Real[total]());
    ++stats_.heapAllocations;
    r.chunks.clear();
    r.chunks.push_back(std::move(merged));
  }
  r.chunk = 0;
  r.used = 0;
  r.stepTotal = 0;
}

void Arena::beginStep() {
  resetRegion(data_);
  resetRegion(grad_);
  // One bulk zero of the grad region per step, sized to what steps
  // actually use — this replaces per-node grad.assign inside backward().
  if (!grad_.chunks.empty() && grad_.highWater > 0) {
    const std::size_t n = std::min(grad_.highWater, grad_.chunks[0].cap);
    std::memset(grad_.chunks[0].mem.get(), 0, n * sizeof(Real));
  }
  ++stats_.steps;
}

Real* Arena::bump(Region& r, std::size_t n, bool zeroed) {
  // Advance past exhausted chunks (their tails are wasted until the next
  // beginStep consolidation).
  while (r.chunk < r.chunks.size() &&
         r.used + n > r.chunks[r.chunk].cap) {
    ++r.chunk;
    r.used = 0;
  }
  if (r.chunk >= r.chunks.size()) {
    std::size_t reserved = 0;
    for (const auto& c : r.chunks) reserved += c.cap;
    const std::size_t cap = std::max({n, reserved, kMinChunkElems});
    Region::Chunk fresh;
    fresh.cap = cap;
    // Grad chunks are born zeroed (value-init) so mid-step growth hands
    // out clean gradient memory without a separate memset.
    fresh.mem = zeroed ? std::unique_ptr<Real[]>(new Real[cap]())
                       : std::make_unique<Real[]>(cap);
    ++stats_.heapAllocations;
    r.chunks.push_back(std::move(fresh));
    r.used = 0;
    r.chunk = r.chunks.size() - 1;
  }
  Real* p = r.chunks[r.chunk].mem.get() + r.used;
  r.used += n;
  r.stepTotal += n;
  // Grad memory above the zeroed high-water mark (first time a step grows
  // past every previous step) must be cleaned here; below it, beginStep's
  // bulk memset already did.
  if (zeroed && r.chunk == 0 && r.stepTotal > r.highWater) {
    const std::size_t dirtyFrom =
        r.stepTotal - n > r.highWater ? r.stepTotal - n : r.highWater;
    std::memset(r.chunks[0].mem.get() + (r.used - (r.stepTotal - dirtyFrom)),
                0, (r.stepTotal - dirtyFrom) * sizeof(Real));
  }
  return p;
}

Real* Arena::allocData(long n) {
  return bump(data_, static_cast<std::size_t>(n), /*zeroed=*/false);
}

Real* Arena::allocGrad(long n) {
  return bump(grad_, static_cast<std::size_t>(n), /*zeroed=*/true);
}

ArenaScope::ArenaScope(Arena& arena) : previous_(tCurrentArena) {
  tCurrentArena = &arena;
}

ArenaScope::~ArenaScope() { tCurrentArena = previous_; }

Arena* currentArena() { return tCurrentArena; }

}  // namespace artsci::ml
