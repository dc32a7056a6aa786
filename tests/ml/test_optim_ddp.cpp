#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ml/ddp.hpp"
#include "ml/layers.hpp"
#include "ml/losses.hpp"
#include "ml/optim.hpp"

namespace artsci::ml {
namespace {

TEST(Adam, ConvergesOnQuadratic) {
  // minimize f(w) = ||w - target||^2
  Tensor w = Tensor::full({4}, 0.0, true);
  Tensor target = Tensor::fromVector({4}, {1.0, -2.0, 0.5, 3.0});
  Adam opt({ParamGroup{{w}, 0.05}}, AdamConfig{});
  for (int i = 0; i < 2000; ++i) {
    opt.zeroGrad();
    Tensor loss = meanAll(square(sub(w, target)));
    loss.backward();
    opt.step();
  }
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(w.data()[i], target.data()[i], 1e-2);
}

TEST(Adam, WeightDecayShrinksUnusedParams) {
  Tensor w = Tensor::full({1}, 1.0, true);
  AdamConfig cfg;
  cfg.weightDecay = 0.1;
  Adam opt({ParamGroup{{w}, 0.01}}, cfg);
  for (int i = 0; i < 500; ++i) {
    opt.zeroGrad();
    w.zeroGrad();  // gradient is exactly zero; only decay acts
    opt.step();
  }
  EXPECT_LT(std::abs(w.data()[0]), 0.5);
}

TEST(Adam, PerGroupLearningRates) {
  // The paper trains VAE layers at a higher rate (factor m_VAE) than the
  // INN. Verify groups advance at different speeds.
  Tensor fast = Tensor::full({1}, 0.0, true);
  Tensor slow = Tensor::full({1}, 0.0, true);
  Adam opt({ParamGroup{{fast}, 0.1}, ParamGroup{{slow}, 0.001}});
  for (int i = 0; i < 50; ++i) {
    opt.zeroGrad();
    Tensor loss = add(square(addScalar(fast, -5.0)),
                      square(addScalar(slow, -5.0)));
    sumAll(loss).backward();
    opt.step();
  }
  EXPECT_GT(fast.data()[0], slow.data()[0] * 5);
}

TEST(SqrtLrRule, ScalesBySqrtOfBatchRatio) {
  // base batch 8 at 1e-6, total batch 3072 (paper's 384 GCDs)
  const Real lr = sqrtScaledLearningRate(1e-6, 3072, 8);
  EXPECT_NEAR(lr, 1e-6 * std::sqrt(384.0), 1e-12);
}

/// Adam's update as the textbook writes it, one value at a time: the
/// oracle for the vectorized loop every Adam step runs.
void textbookAdam(std::vector<Real>& w, const std::vector<Real>& grad,
                  std::vector<Real>& m, std::vector<Real>& v, Real lr,
                  const AdamConfig& cfg, long t) {
  const Real b1t = Real(1) - std::pow(cfg.beta1, static_cast<Real>(t));
  const Real b2t = Real(1) - std::pow(cfg.beta2, static_cast<Real>(t));
  for (std::size_t i = 0; i < w.size(); ++i) {
    const Real gi = grad[i] + cfg.weightDecay * w[i];
    m[i] = cfg.beta1 * m[i] + (Real(1) - cfg.beta1) * gi;
    v[i] = cfg.beta2 * v[i] + (Real(1) - cfg.beta2) * gi * gi;
    const Real mhat = m[i] / b1t;
    const Real vhat = v[i] / b2t;
    w[i] -= lr * mhat / (std::sqrt(vhat) + cfg.eps);
  }
}

TEST(Adam, StepMatchesTextbookFormulaBitwise) {
  AdamConfig cfg;
  cfg.weightDecay = 0.01;
  Rng rng(3);
  // Two groups, odd lengths (vector tails), gradients from 1e-9 to 1e3 and
  // exact zeros.
  const std::vector<std::vector<long>> sizes{{37, 1}, {130}};
  const std::vector<Real> lrs{0.05, 0.002};
  std::vector<ParamGroup> groups;
  std::vector<std::vector<Real>> w, m, v;
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    ParamGroup group{{}, lrs[g]};
    for (long n : sizes[g]) {
      group.params.push_back(Tensor::randn({n}, rng, 1.0, true));
      w.push_back(group.params.back().data());
      m.emplace_back(static_cast<std::size_t>(n), Real(0));
      v.emplace_back(static_cast<std::size_t>(n), Real(0));
    }
    groups.push_back(group);
  }
  Adam opt(groups, cfg);
  for (long t = 1; t <= 4; ++t) {
    std::size_t k = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (auto& p : groups[g].params) {
        auto& grad = p.grad();
        grad.resize(p.data().size());
        for (std::size_t i = 0; i < grad.size(); ++i) {
          const Real magnitude = std::pow(10.0, rng.uniform(-9, 3));
          grad[i] = i % 7 == 0 ? Real(0) : rng.normal() * magnitude;
        }
        textbookAdam(w[k], grad, m[k], v[k], lrs[g], cfg, t);
        ++k;
      }
    }
    opt.step();
    k = 0;
    for (const auto& group : groups)
      for (const auto& p : group.params) {
        ASSERT_EQ(p.data(), w[k]) << "step " << t << " param " << k;
        ++k;
      }
  }
}

/// Parameters of `sizes` (tensor lengths per group), drawn from one seed so
/// that every call returns the same values.
std::vector<ParamGroup> makeGroups(
    const std::vector<std::vector<long>>& sizes) {
  Rng rng(5);
  std::vector<ParamGroup> groups;
  Real lr = 0.05;
  for (const auto& group : sizes) {
    groups.push_back({{}, lr});
    for (long n : group)
      groups.back().params.push_back(Tensor::randn({n}, rng, 1.0, true));
    lr *= 0.3;
  }
  return groups;
}

std::vector<Tensor> flatten(const std::vector<ParamGroup>& groups) {
  std::vector<Tensor> out;
  for (const auto& g : groups)
    out.insert(out.end(), g.params.begin(), g.params.end());
  return out;
}

/// Five sharded steps on `ranks` rank threads with random per-rank
/// gradients, all inside one team run so that a rank may race ahead into
/// its next step. Every replica must end bit-identical to the replicated
/// step the collective replaced, kept here as its oracle: an all-reduce
/// summing the ranks' gradients in rank order and scaling by 1/ranks,
/// then one full Adam::step on the mean.
void expectShardedStepMatchesReference(
    std::size_t ranks, const std::vector<std::vector<long>>& sizes) {
  constexpr int kSteps = 5;
  AdamConfig cfg;
  cfg.weightDecay = 0.01;
  const std::vector<ParamGroup> refGroups = makeGroups(sizes);
  std::vector<Tensor> ref = flatten(refGroups);
  Adam refOpt(refGroups, cfg);

  std::vector<std::vector<Tensor>> replicas(ranks);
  std::vector<ParamGroup> groups0 = makeGroups(sizes);
  replicas[0] = flatten(groups0);
  for (std::size_t r = 1; r < ranks; ++r)
    replicas[r] = flatten(makeGroups(sizes));
  Adam opt(groups0, cfg);

  // grads[step][rank][param]
  Rng rng(99 + ranks);
  std::vector<std::vector<std::vector<std::vector<Real>>>> grads(kSteps);
  for (auto& step : grads) {
    step.resize(ranks);
    for (auto& rank : step)
      for (const auto& p : ref) {
        rank.emplace_back(p.data().size());
        for (auto& g : rank.back()) g = rng.normal();
      }
  }

  const Real scale = Real(1) / static_cast<Real>(ranks);
  for (const auto& step : grads) {
    for (std::size_t k = 0; k < ref.size(); ++k) {
      std::vector<Real> mean(ref[k].data().size());
      for (std::size_t i = 0; i < mean.size(); ++i) {
        Real sum = Real(0);
        for (std::size_t r = 0; r < ranks; ++r) sum += step[r][k][i];
        mean[i] = sum * scale;
      }
      ref[k].grad() = mean;
    }
    refOpt.step();
  }

  RankTeam team(ranks);
  Communicator comm(team);
  team.run([&](std::size_t rank) {
    for (const auto& step : grads) {
      for (std::size_t k = 0; k < ref.size(); ++k)
        replicas[rank][k].grad() = step[rank][k];
      comm.stepAdam(rank, opt, replicas);
    }
  });

  EXPECT_EQ(opt.stepCount(), kSteps);
  for (std::size_t r = 0; r < ranks; ++r)
    for (std::size_t k = 0; k < ref.size(); ++k)
      ASSERT_EQ(replicas[r][k].data(), ref[k].data())
          << ranks << " ranks, replica " << r << ", param " << k;
}

TEST(ShardedAdamStep, MatchesRankOrderedMeanThenFullStep) {
  // 23 values, which neither 2 nor 3 divides. The chunk boundaries fall
  // inside tensors (12 at 2 ranks; 8 and 16 at 3), and the chunk after
  // the first boundary spans the boundary between the groups (at 13), as
  // a chunk can span the VAE and INN groups.
  for (std::size_t ranks : {1u, 2u, 3u})
    expectShardedStepMatchesReference(ranks, {{5, 8}, {4, 6}});
}

TEST(ShardedAdamStep, RankWithAnEmptyChunkStillSteps) {
  // 2 values on 3 ranks: chunks of 1, so rank 2 owns nothing but must
  // still meet the barriers.
  expectShardedStepMatchesReference(3, {{1}, {1}});
}

TEST(ShardedAdamStep, RejectsAnOptimizerOverAnotherReplica) {
  // The optimizer must step replica 0's own tensors: the mean is written
  // into replica 0's gradients, and Adam reads its own.
  const std::vector<std::vector<long>> sizes{{3}};
  std::vector<std::vector<Tensor>> replicas{flatten(makeGroups(sizes))};
  Adam other(makeGroups(sizes));
  RankTeam team(1);
  Communicator comm(team);
  EXPECT_THROW(comm.stepAdam(0, other, replicas), ContractError);
}

TEST(Communicator, TracksCommunicationTime) {
  const std::vector<std::vector<long>> sizes{{1000}};
  std::vector<ParamGroup> groups0 = makeGroups(sizes);
  std::vector<std::vector<Tensor>> replicas{flatten(groups0),
                                            flatten(makeGroups(sizes))};
  Adam opt(groups0);
  RankTeam team(2);
  Communicator comm(team);
  team.run([&](std::size_t rank) {
    for (int i = 0; i < 5; ++i) comm.stepAdam(rank, opt, replicas);
  });
  EXPECT_GT(comm.communicationSeconds(0), 0.0);
  EXPECT_GT(comm.communicationSeconds(1), 0.0);
}

TEST(Ddp, GradientAveragingMatchesSerialBigBatch) {
  // One data-parallel step on 2 ranks with per-rank batch 2 must move the
  // weights as one serial Adam step on the concatenated batch of 4 does
  // (for a loss that averages over the batch): the ranks' mean gradient
  // equals the big batch's up to rounding.
  Rng rng(42);
  Tensor xAll = Tensor::randn({4, 3}, rng);
  Tensor yAll = Tensor::randn({4, 2}, rng);
  constexpr Real kLr = 0.01;

  // Serial reference.
  Rng rngRef(7);
  Linear ref(3, 2, rngRef);
  Adam refOpt({ParamGroup{ref.parameters(), kLr}});
  {
    Tensor pred = ref.forward(xAll);
    mseLoss(pred, yAll).backward();
  }
  refOpt.step();

  // DDP: same init (same seed), half the batch per rank, one optimizer
  // over replica 0.
  constexpr std::size_t kRanks = 2;
  RankTeam team(kRanks);
  Communicator comm(team);
  std::vector<std::unique_ptr<Linear>> replicas(kRanks);
  std::vector<std::vector<Tensor>> replicaParams;
  for (std::size_t r = 0; r < kRanks; ++r) {
    Rng rngR(7);
    replicas[r] = std::make_unique<Linear>(3, 2, rngR);
    replicaParams.push_back(replicas[r]->parameters());
  }
  Adam opt({ParamGroup{replicaParams[0], kLr}});
  team.run([&](std::size_t rank) {
    Tensor x = slice(xAll, 0, static_cast<long>(rank) * 2,
                     static_cast<long>(rank) * 2 + 2).detach();
    Tensor y = slice(yAll, 0, static_cast<long>(rank) * 2,
                     static_cast<long>(rank) * 2 + 2).detach();
    Tensor pred = replicas[rank]->forward(x);
    mseLoss(pred, y).backward();
    comm.stepAdam(rank, opt, replicaParams);
  });

  const auto refParams = ref.parameters();
  for (std::size_t r = 0; r < kRanks; ++r) {
    for (std::size_t p = 0; p < refParams.size(); ++p) {
      const auto& got = replicaParams[r][p].data();
      ASSERT_EQ(got.size(), refParams[p].data().size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], refParams[p].data()[i], 1e-10)
            << "rank " << r << " param " << p << " elem " << i;
      }
    }
  }
}

}  // namespace
}  // namespace artsci::ml
