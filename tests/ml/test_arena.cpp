/// Tests of the step arena: results built under an ArenaScope live in
/// arena storage (heap vector access trips the guard), repeated steps of
/// one topology grow no region once the regions are sized (proven via
/// Arena::stats()), a new topology grows them once, and — the
/// hard contract — values and gradients are bit-identical across {1,2,8}
/// threads, across heap and arena storage, and to the reference graph of
/// tests/ml/reference_graph.hpp (copied views, separate activation nodes)
/// for every layer type the model uses.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/arena.hpp"
#include "ml/coupling.hpp"
#include "ml/layers.hpp"
#include "ml/ops.hpp"
#include "ml/tensor.hpp"
#include "reference_graph.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace artsci::ml {
namespace {

/// A small fixed training step: MLP forward + scalar loss + backward.
/// Heap-backed leaves (params, input) with all intermediates arena-backed
/// when run under an ArenaScope — the same split the trainer uses.
struct StepFixture {
  Mlp mlp;
  Tensor x;

  explicit StepFixture(Rng& rng)
      : mlp({8, 16, 16, 4}, rng), x(Tensor::randn({6, 8}, rng)) {}

  /// One fwd+bwd; returns the flattened parameter gradients.
  std::vector<Real> step() {
    for (auto& p : mlp.parameters()) p.zeroGrad();
    Tensor loss = sumAll(square(mlp.forward(x)));
    loss.backward();
    std::vector<Real> grads;
    for (const auto& p : mlp.parameters()) {
      const Real* g = p.gradPtr();
      grads.insert(grads.end(), g, g + p.numel());
    }
    return grads;
  }
};

TEST(Arena, ScopeMakesResultsArenaBacked) {
  Rng rng(1);
  Tensor a = Tensor::randn({4, 4}, rng);
  Arena arena;
  arena.beginStep();
  {
    ArenaScope scope(arena);
    Tensor b = square(a);
    // Results inside the scope are arena-backed: no heap vector behind
    // them, so the vector accessor must trip the guard...
    EXPECT_THROW(b.data(), ContractError);
    // ...while the raw-pointer path works.
    EXPECT_EQ(b.dataPtr()[0], a.dataPtr()[0] * a.dataPtr()[0]);
    // Leaves stay heap-backed even inside the scope.
    Tensor leaf = Tensor::zeros({3});
    EXPECT_NO_THROW(leaf.data());
  }
  // Outside the scope results are heap again.
  Tensor c = square(a);
  EXPECT_NO_THROW(c.data());
  EXPECT_GT(arena.stats().heapAllocations, 0u);
}

TEST(Arena, ZeroSteadyStateAllocations) {
  Rng rng(2);
  StepFixture fixture(rng);
  Arena arena;

  // Warm-up: the first step grows the regions.
  arena.beginStep();
  std::vector<Real> g0;
  {
    ArenaScope scope(arena);
    g0 = fixture.step();
  }
  const Arena::Stats warm = arena.stats();
  EXPECT_EQ(warm.steps, 1u);
  EXPECT_GT(warm.heapAllocations, 0u);

  // Step 2: its beginStep may still consolidate the warm-up chunks into
  // one allocation. From here on the heap is off limits.
  arena.beginStep();
  {
    ArenaScope scope(arena);
    EXPECT_EQ(fixture.step(), g0);
  }
  const Arena::Stats settled = arena.stats();

  // Steady state: identical topology -> zero new mallocs and
  // bit-identical gradients every step.
  for (int i = 0; i < 4; ++i) {
    arena.beginStep();
    ArenaScope scope(arena);
    EXPECT_EQ(fixture.step(), g0);
  }
  const Arena::Stats steady = arena.stats();
  EXPECT_EQ(steady.steps, 6u);
  EXPECT_EQ(steady.heapAllocations, settled.heapAllocations)
      << "steady-state steps must not touch the heap";
}

TEST(Arena, NewTopologyGrowsOnceThenRepeatsGrowNothing) {
  Rng rng(3);
  Arena arena;
  // b's 16 384 elements exceed a's first chunk (kMinChunkElems = 8 192).
  Tensor a = Tensor::randn({4, 4}, rng);
  Tensor b = Tensor::randn({128, 128}, rng);

  auto run = [&](const Tensor& t) {
    arena.beginStep();
    ArenaScope scope(arena);
    Tensor loss = sumAll(square(t));
    (void)loss.item();
  };
  run(a);
  run(a);
  const std::uint64_t settledA = arena.stats().heapAllocations;
  run(b);  // outgrows the regions sized for a
  EXPECT_GT(arena.stats().heapAllocations, settledA);
  run(b);  // its beginStep merges the grown chunks into one
  const std::uint64_t settledB = arena.stats().heapAllocations;
  for (int i = 0; i < 3; ++i) run(b);
  EXPECT_EQ(arena.stats().heapAllocations, settledB);
  run(a);  // a smaller topology fits the merged chunk
  EXPECT_EQ(arena.stats().heapAllocations, settledB);
  EXPECT_EQ(arena.stats().steps, 8u);
}

/// Output values and gradients (in `leaves` order) of one fwd+bwd of
/// sum(forward()^2).
struct StepBits {
  std::vector<Real> out;
  std::vector<Real> grads;
};

template <typename Forward>
StepBits runStep(const std::vector<Tensor>& leaves, Forward&& forward) {
  for (Tensor p : leaves) p.zeroGrad();
  Tensor out = forward();
  sumAll(square(out)).backward();
  StepBits bits{out.toVector(), {}};
  for (const Tensor& p : leaves) {
    const Real* g = p.gradPtr();
    bits.grads.insert(bits.grads.end(), g, g + p.numel());
  }
  return bits;
}

template <typename Forward>
StepBits runArenaStep(Arena& arena, const std::vector<Tensor>& leaves,
                      Forward&& forward) {
  arena.beginStep();
  ArenaScope scope(arena);
  return runStep(leaves, forward);
}

/// The production graph and the reference graph give the same values and
/// gradients, bit for bit, on the heap and in an arena (the sizing step,
/// the consolidating step and a settled step), and the settled step grows
/// no arena region.
template <typename Prod, typename Ref>
void expectMatchesReference(const std::vector<Tensor>& leaves, Prod&& prod,
                            Ref&& ref) {
  const StepBits expect = runStep(leaves, prod);
  const StepBits heapRef = runStep(leaves, ref);
  EXPECT_EQ(heapRef.out, expect.out) << "heap: values";
  EXPECT_EQ(heapRef.grads, expect.grads) << "heap: gradients";
  Arena prodArena, refArena;
  std::uint64_t prodSettled = 0, refSettled = 0;
  for (int step = 0; step < 3; ++step) {
    SCOPED_TRACE("arena step " + std::to_string(step));
    if (step == 2) {
      prodSettled = prodArena.stats().heapAllocations;
      refSettled = refArena.stats().heapAllocations;
    }
    const StepBits p = runArenaStep(prodArena, leaves, prod);
    const StepBits r = runArenaStep(refArena, leaves, ref);
    EXPECT_EQ(p.out, expect.out) << "arena: production values";
    EXPECT_EQ(p.grads, expect.grads) << "arena: production gradients";
    EXPECT_EQ(r.out, expect.out) << "arena: reference values";
    EXPECT_EQ(r.grads, expect.grads) << "arena: reference gradients";
  }
  EXPECT_EQ(prodArena.stats().heapAllocations, prodSettled)
      << "production: the third arena step grew a region";
  EXPECT_EQ(refArena.stats().heapAllocations, refSettled)
      << "reference: the third arena step grew a region";
}

/// Parameters followed by the extra leaves whose gradients also count.
std::vector<Tensor> leavesOf(const Module& m, std::vector<Tensor> extra) {
  std::vector<Tensor> leaves = m.parameters();
  for (Tensor& t : extra) leaves.push_back(std::move(t));
  return leaves;
}

TEST(Arena, GradsBitIdenticalAcrossArenaAndReferenceGraph) {
  Rng rng(4);
  StepFixture fixture(rng);

  // Reference: plain heap execution.
  const std::vector<Real> reference = fixture.step();
  // Arena, warm-up and steady-state steps.
  {
    Arena arena;
    for (int i = 0; i < 3; ++i) {
      arena.beginStep();
      ArenaScope scope(arena);
      EXPECT_EQ(fixture.step(), reference);
    }
  }

  // An INN training step (dim 64, 4 blocks, hidden {48, 48}, batch 16)
  // against the reference graph with copied column slices and separate
  // leaky-ReLU nodes; its third arena step must grow no region.
  Rng innRng(7);
  Inn::Config cfg;
  cfg.dim = 64;
  cfg.blocks = 4;
  cfg.hidden = {48, 48};
  Inn inn(cfg, innRng);
  Tensor x = Tensor::randn({16, 64}, innRng, Real(1), /*requiresGrad=*/true);
  expectMatchesReference(
      leavesOf(inn, {x}), [&] { return inn.forward(x); },
      [&] { return reference::inn(inn, x); });
}

TEST(Arena, MlpMatchesReferenceGraphForEveryActivationPair) {
  const Activation hiddens[] = {Activation::kRelu, Activation::kLeakyRelu,
                                Activation::kTanh};
  const Activation outputs[] = {Activation::kNone, Activation::kTanh,
                                Activation::kRelu};
  for (Activation hidden : hiddens) {
    for (Activation output : outputs) {
      SCOPED_TRACE("hidden " + std::to_string(static_cast<int>(hidden)) +
                   " output " + std::to_string(static_cast<int>(output)));
      Rng rng(21);
      Mlp mlp({8, 16, 12, 5}, rng, hidden, output);
      // Rank 3, so Linear flattens and restores it through reshape.
      Tensor x = Tensor::randn({3, 4, 8}, rng, Real(1), /*requiresGrad=*/true);
      expectMatchesReference(
          leavesOf(mlp, {x}), [&] { return mlp.forward(x); },
          [&] { return reference::mlp(mlp, x); });
    }
  }
}

TEST(Arena, PointNetEncoderMatchesReferenceGraph) {
  Rng rng(22);
  PointNetEncoder::Config cfg;
  cfg.channels = {6, 8, 16};
  cfg.headHidden = 12;
  cfg.latentDim = 10;
  PointNetEncoder enc(cfg, rng);
  Tensor x = Tensor::randn({2, 24, 6}, rng, Real(1), /*requiresGrad=*/true);
  auto joined = [](const PointNetEncoder::Moments& m) {
    return cat({m.mu, m.logvar}, -1);
  };
  expectMatchesReference(
      leavesOf(enc, {x}), [&] { return joined(enc.forward(x)); },
      [&] { return joined(reference::encoder(enc, x)); });
}

TEST(Arena, VoxelDecoderMatchesReferenceGraph) {
  Rng rng(23);
  VoxelDecoder::Config cfg;
  cfg.latentDim = 10;
  cfg.baseGrid = 2;
  cfg.channels = {8, 4, 6};
  VoxelDecoder dec(cfg, rng);
  Tensor z = Tensor::randn({2, 10}, rng, Real(1), /*requiresGrad=*/true);
  expectMatchesReference(
      leavesOf(dec, {z}), [&] { return dec.forward(z); },
      [&] { return reference::decoder(dec, z); });
}

TEST(Arena, BitIdenticalAcrossThreadCounts) {
  Rng rng(5);
  StepFixture fixture(rng);
  Arena arena;

  // Baseline at the default thread count: a sizing step, then a settled
  // step that repeats its bits.
  arena.beginStep();
  std::vector<Real> reference;
  {
    ArenaScope scope(arena);
    reference = fixture.step();
  }
  arena.beginStep();
  {
    ArenaScope scope(arena);
    EXPECT_EQ(fixture.step(), reference);
  }
  const std::uint64_t settled = arena.stats().heapAllocations;
#ifdef _OPENMP
  for (int threads : {1, 2, 8}) {
    omp_set_num_threads(threads);
    arena.beginStep();
    ArenaScope scope(arena);
    EXPECT_EQ(fixture.step(), reference)
        << "gradients diverged at " << threads << " threads";
  }
  omp_set_num_threads(omp_get_num_procs());
#else
  arena.beginStep();
  {
    ArenaScope scope(arena);
    EXPECT_EQ(fixture.step(), reference);
  }
#endif
  EXPECT_EQ(arena.stats().heapAllocations, settled)
      << "thread count must not grow an arena region";
}

}  // namespace
}  // namespace artsci::ml
