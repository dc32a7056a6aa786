/// End-to-end tests of the full Artificial Scientist: PIC -> radiation ->
/// openPMD/nanoSST streams -> replay buffer -> DDP training -> inversion.
#include <gtest/gtest.h>

#include "core/evaluate.hpp"
#include "core/pipeline.hpp"

namespace artsci::core {
namespace {

TEST(Integration, FullPipelineStreamsAndTrains) {
  auto cfg = PipelineConfig::quickDemo();
  cfg.producer.totalSteps = 20;
  cfg.producer.streamEvery = 2;
  cfg.nRep = 2;
  auto run = runPipeline(cfg);
  const auto& res = run.result;

  EXPECT_EQ(res.iterationsStreamed, 10);
  EXPECT_EQ(res.samplesReceived, 30u);  // 3 regions per iteration
  EXPECT_GT(res.bytesStreamed, 0u);
  EXPECT_GT(res.train.iterations, 0);
  EXPECT_FALSE(res.train.lossHistory.empty());
  for (double l : res.train.lossHistory) EXPECT_TRUE(std::isfinite(l));
}

TEST(Integration, BackPressureReachesProducer) {
  // Tiny queue + heavy training per step forces the producer to stall —
  // the in-transit coupling the paper describes.
  auto cfg = PipelineConfig::quickDemo();
  cfg.producer.totalSteps = 8;
  cfg.producer.streamEvery = 1;
  cfg.queueLimit = 1;
  cfg.nRep = 8;
  auto run = runPipeline(cfg);
  EXPECT_GT(run.result.producerStallSeconds, 0.0);
}

TEST(Integration, TrainedModelLearnsRegionSignatures) {
  // Longer run: train in-transit, then check (a) loss went down and
  // (b) the inversion separates approaching from receding momenta —
  // the essence of Fig 9.
  auto cfg = PipelineConfig::quickDemo();
  cfg.producer.khi.grid = pic::GridSpec{16, 32, 4, 0.25, 0.25, 0.25};
  cfg.producer.warmupSteps = 5;
  cfg.producer.totalSteps = 100;
  cfg.producer.streamEvery = 2;
  cfg.nRep = 8;
  cfg.trainer.ranks = 2;
  cfg.trainer.baseLearningRate = 4e-4;
  auto run = runPipeline(cfg);

  const auto& hist = run.result.train.lossHistory;
  ASSERT_GT(hist.size(), 40u);
  double early = 0, late = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    early += hist[i];
    late += hist[hist.size() - 10 + i];
  }
  EXPECT_LT(late, early);

  // Build held-out ground truth from a fresh short simulation.
  ProducerConfig pcfg = cfg.producer;
  pcfg.seed = 999;
  pcfg.totalSteps = 10;
  pcfg.streamEvery = 5;
  const std::vector<Sample> groundTruth = collectSamples(pcfg);
  ASSERT_GE(groundTruth.size(), 3u);

  Rng rng(31);
  EvaluationConfig ecfg;
  ecfg.inversionDraws = 24;
  const auto evals = evaluateInversion(run.trainer->model(),
                                       cfg.producer.transform, groundTruth,
                                       ecfg, rng);
  ASSERT_EQ(evals.size(), 3u);
  // Ground truth: approaching mean > 0 > receding mean.
  double truthAppr = 0, truthRec = 0, predAppr = 0, predRec = 0;
  for (const auto& e : evals) {
    if (e.region == pic::KhiRegion::kApproaching) {
      truthAppr = e.meanTruth;
      predAppr = e.meanPred;
    }
    if (e.region == pic::KhiRegion::kReceding) {
      truthRec = e.meanTruth;
      predRec = e.meanPred;
    }
  }
  EXPECT_GT(truthAppr, 0.1);
  EXPECT_LT(truthRec, -0.1);
  // The trained inversion must order the two streams correctly (the
  // unambiguous-classification claim of Fig 9); exact means need longer
  // training than a unit test affords.
  EXPECT_GT(predAppr, predRec);
}

}  // namespace
}  // namespace artsci::core
