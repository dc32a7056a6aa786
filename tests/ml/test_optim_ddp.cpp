#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ml/ddp.hpp"
#include "ml/layers.hpp"
#include "ml/losses.hpp"
#include "ml/optim.hpp"
#include "ml/serialize.hpp"

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

TEST(Adam, SetLearningRate) {
  Tensor w = Tensor::full({1}, 0.0, true);
  Adam opt({ParamGroup{{w}, 0.1}});
  opt.setLearningRate(0, 0.5);
  EXPECT_DOUBLE_EQ(opt.learningRate(0), 0.5);
}

TEST(SqrtLrRule, ScalesBySqrtOfBatchRatio) {
  // base batch 8 at 1e-6, total batch 3072 (paper's 384 GCDs)
  const Real lr = sqrtScaledLearningRate(1e-6, 3072, 8);
  EXPECT_NEAR(lr, 1e-6 * std::sqrt(384.0), 1e-12);
}

TEST(Communicator, AllReduceMeanAveragesRankValues) {
  constexpr std::size_t kRanks = 4;
  Communicator comm(kRanks);
  std::vector<std::vector<Real>> results(kRanks);
  runRankTeam(kRanks, [&](std::size_t rank) {
    std::vector<Real> buf{static_cast<Real>(rank), 10.0};
    comm.allReduceMean(rank, buf);
    results[rank] = buf;
  });
  for (std::size_t r = 0; r < kRanks; ++r) {
    EXPECT_NEAR(results[r][0], (0 + 1 + 2 + 3) / 4.0, 1e-12);
    EXPECT_NEAR(results[r][1], 10.0, 1e-12);
  }
}

TEST(Communicator, AllReduceRepeatedCalls) {
  constexpr std::size_t kRanks = 3;
  Communicator comm(kRanks);
  std::atomic<bool> bad{false};
  runRankTeam(kRanks, [&](std::size_t rank) {
    for (int iter = 0; iter < 20; ++iter) {
      std::vector<Real> buf{static_cast<Real>(rank + iter)};
      comm.allReduceMean(rank, buf);
      const Real expected = (0 + 1 + 2) / 3.0 + iter;
      if (std::abs(buf[0] - expected) > 1e-12) bad = true;
    }
  });
  EXPECT_FALSE(bad.load());
}

TEST(Communicator, SingleRankIsNoop) {
  Communicator comm(1);
  std::vector<Real> buf{5.0};
  comm.allReduceMean(0, buf);
  EXPECT_EQ(buf[0], 5.0);
}

TEST(Communicator, TracksCommunicationTime) {
  Communicator comm(2);
  runRankTeam(2, [&](std::size_t rank) {
    std::vector<Real> buf(1000, 1.0);
    for (int i = 0; i < 5; ++i) comm.allReduceMean(rank, buf);
  });
  EXPECT_GT(comm.communicationSeconds(0), 0.0);
  EXPECT_GT(comm.communicationSeconds(1), 0.0);
}

TEST(Ddp, GradientAveragingMatchesSerialBigBatch) {
  // Data-parallel training on 2 ranks with per-rank batch 2 must produce
  // the same gradients as serial training on the concatenated batch of 4
  // (for a loss that averages over the batch).
  Rng rng(42);
  Tensor xAll = Tensor::randn({4, 3}, rng);
  Tensor yAll = Tensor::randn({4, 2}, rng);

  // Serial reference.
  Rng rngRef(7);
  Linear ref(3, 2, rngRef);
  {
    Tensor pred = ref.forward(xAll);
    mseLoss(pred, yAll).backward();
  }

  // DDP: same init (same seed), half the batch per rank.
  constexpr std::size_t kRanks = 2;
  Communicator comm(kRanks);
  std::vector<std::unique_ptr<Linear>> replicas(kRanks);
  for (std::size_t r = 0; r < kRanks; ++r) {
    Rng rngR(7);
    replicas[r] = std::make_unique<Linear>(3, 2, rngR);
  }
  runRankTeam(kRanks, [&](std::size_t rank) {
    Tensor x = slice(xAll, 0, static_cast<long>(rank) * 2,
                     static_cast<long>(rank) * 2 + 2).detach();
    Tensor y = slice(yAll, 0, static_cast<long>(rank) * 2,
                     static_cast<long>(rank) * 2 + 2).detach();
    Tensor pred = replicas[rank]->forward(x);
    mseLoss(pred, y).backward();
    allReduceGradients(comm, rank, replicas[rank]->parameters());
  });

  const auto refParams = ref.parameters();
  for (std::size_t r = 0; r < kRanks; ++r) {
    const auto repParams = replicas[r]->parameters();
    for (std::size_t p = 0; p < refParams.size(); ++p) {
      ASSERT_EQ(repParams[p].grad().size(), refParams[p].grad().size());
      for (std::size_t i = 0; i < refParams[p].grad().size(); ++i) {
        EXPECT_NEAR(repParams[p].grad()[i], refParams[p].grad()[i], 1e-10)
            << "rank " << r << " param " << p << " elem " << i;
      }
    }
  }
}

TEST(Serialize, RoundTripPreservesValues) {
  Rng rng(1);
  Linear a(5, 3, rng);
  const std::string path = "/tmp/artsci_test_ckpt.bin";
  saveParameters(path, a.parameters());

  Rng rng2(2);
  Linear b(5, 3, rng2);
  auto params = b.parameters();
  loadParameters(path, params);
  const auto ref = a.parameters();
  for (std::size_t p = 0; p < ref.size(); ++p)
    EXPECT_EQ(params[p].data(), ref[p].data());
  std::remove(path.c_str());
}

TEST(Serialize, ShapeMismatchRejected) {
  Rng rng(1);
  Linear a(5, 3, rng);
  const std::string path = "/tmp/artsci_test_ckpt2.bin";
  saveParameters(path, a.parameters());
  Linear b(3, 5, rng);
  auto params = b.parameters();
  EXPECT_THROW(loadParameters(path, params), ContractError);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  std::vector<Tensor> params;
  EXPECT_THROW(loadParameters("/tmp/definitely_missing_artsci.bin", params),
               ContractError);
}

}  // namespace
}  // namespace artsci::ml
