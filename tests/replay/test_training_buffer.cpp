#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "replay/training_buffer.hpp"

namespace artsci::replay {
namespace {

using IntBuffer = TrainingBuffer<int>;

TrainingBufferConfig paperConfig() { return TrainingBufferConfig{}; }

TEST(TrainingBufferTest, PaperDefaults) {
  const TrainingBufferConfig cfg;
  EXPECT_EQ(cfg.nowCapacity, 10u);
  EXPECT_EQ(cfg.epCapacity, 20u);
  EXPECT_EQ(cfg.nowPerBatch, 4u);
  EXPECT_EQ(cfg.epPerBatch, 4u);
}

TEST(TrainingBufferTest, NotReadyUntilEnoughSamples) {
  IntBuffer buf(paperConfig());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(buf.ready());
    buf.push(i);
  }
  EXPECT_FALSE(buf.ready());
  buf.push(3);
  EXPECT_TRUE(buf.ready());
}

TEST(TrainingBufferTest, SampleBeforeReadyThrows) {
  IntBuffer buf(paperConfig());
  Rng draws(1);
  buf.push(1);
  EXPECT_THROW(buf.sampleBatch(draws), ContractError);
}

TEST(TrainingBufferTest, NowBufferHoldsLatest) {
  IntBuffer buf(paperConfig());
  for (int i = 0; i < 25; ++i) buf.push(i);
  EXPECT_EQ(buf.nowSize(), 10u);
  const auto now = buf.snapshot().now;
  // Prepend semantics: newest first; the 10 newest are 24..15.
  EXPECT_EQ(now.front(), 24);
  EXPECT_EQ(now.back(), 15);
}

TEST(TrainingBufferTest, DisplacedSamplesEnterEpBuffer) {
  IntBuffer buf(paperConfig());
  for (int i = 0; i < 15; ++i) buf.push(i);
  EXPECT_EQ(buf.nowSize(), 10u);
  EXPECT_EQ(buf.epSize(), 5u);
  // EP holds exactly the displaced oldest samples 0..4.
  const auto ep = buf.snapshot().ep;
  const std::set<int> epSet(ep.begin(), ep.end());
  EXPECT_EQ(epSet, (std::set<int>{0, 1, 2, 3, 4}));
}

TEST(TrainingBufferTest, EpBufferCapsAtCapacityWithRandomEviction) {
  IntBuffer buf(paperConfig(), /*seed=*/7);
  for (int i = 0; i < 200; ++i) buf.push(i);
  EXPECT_EQ(buf.epSize(), 20u);
  EXPECT_EQ(buf.nowSize(), 10u);
  // Random eviction keeps a mixture of ages, not just the newest spills:
  // with FIFO eviction the EP buffer would hold exactly 170..189.
  const auto ep = buf.snapshot().ep;
  int older = 0;
  for (int v : ep) older += (v < 170);
  EXPECT_GT(older, 0);
}

TEST(TrainingBufferTest, BatchCompositionFourPlusFour) {
  IntBuffer buf(paperConfig(), 3);
  Rng draws(1);
  for (int i = 0; i < 40; ++i) buf.push(i);
  const auto batch = buf.sampleBatch(draws);
  ASSERT_EQ(batch.size(), 8u);
  // First 4 from the now-buffer (values 30..39), last 4 from EP (< 30).
  for (int i = 0; i < 4; ++i) EXPECT_GE(batch[static_cast<std::size_t>(i)], 30);
  for (int i = 4; i < 8; ++i) EXPECT_LT(batch[static_cast<std::size_t>(i)], 30);
}

TEST(TrainingBufferTest, BatchSmallerBeforeEpFills) {
  IntBuffer buf(paperConfig());
  Rng draws(1);
  for (int i = 0; i < 5; ++i) buf.push(i);  // nothing displaced yet
  const auto batch = buf.sampleBatch(draws);
  EXPECT_EQ(batch.size(), 4u);  // now-only batch
}

TEST(TrainingBufferTest, EpReadyFlipsAtFirstDisplacementAndFixesBatchSize) {
  // Pins the pre-fill contract: ready() gates only on the now-buffer, so
  // batches are legal (and now-only, size n_now) before any sample has
  // spilled into the EP buffer; epReady() flips exactly at the first
  // displacement — push number nowCapacity + 1 — and from then on every
  // batch carries the full n_now + n_EP composition.
  IntBuffer buf(paperConfig(), 17);
  Rng draws(1);
  const auto cfg = buf.config();
  for (std::size_t i = 0; i < cfg.nowCapacity; ++i) {
    buf.push(static_cast<int>(i));
    EXPECT_FALSE(buf.epReady());
    if (i + 1 >= cfg.nowPerBatch) {
      ASSERT_TRUE(buf.ready());
      // Warm-up batches draw from the now-buffer alone.
      const auto batch = buf.sampleBatch(draws);
      EXPECT_EQ(batch.size(), cfg.nowPerBatch);
      for (int v : batch) EXPECT_LE(v, static_cast<int>(i));
    }
  }
  buf.push(static_cast<int>(cfg.nowCapacity));  // first displacement
  EXPECT_TRUE(buf.epReady());
  EXPECT_EQ(buf.epSize(), 1u);
  // Mixed composition from the very first post-displacement batch: the
  // EP-slice exists even while the EP buffer holds a single sample (it
  // is drawn with replacement).
  const auto mixed = buf.sampleBatch(draws);
  ASSERT_EQ(mixed.size(), cfg.nowPerBatch + cfg.epPerBatch);
  for (std::size_t i = cfg.nowPerBatch; i < mixed.size(); ++i)
    EXPECT_EQ(mixed[i], 0);  // the one displaced (oldest) sample
}

TEST(TrainingBufferTest, CountsReceivedAndSampled) {
  IntBuffer buf(paperConfig());
  Rng draws(1);
  for (int i = 0; i < 12; ++i) buf.push(i);
  (void)buf.sampleBatch(draws);
  (void)buf.sampleBatch(draws);
  EXPECT_EQ(buf.received(), 12u);
  EXPECT_EQ(buf.batchesSampled(), 2u);
}

TEST(TrainingBufferTest, NRepBatchesPerStreamedStep) {
  // The trainer draws n_rep batches per streamed sample; every batch must
  // come out full once the buffers are warm.
  IntBuffer buf(paperConfig(), 11);
  Rng draws(1);
  for (int i = 0; i < 30; ++i) buf.push(i);
  const int nRep = 16;
  for (int r = 0; r < nRep; ++r) {
    EXPECT_EQ(buf.sampleBatch(draws).size(), 8u);
  }
}

TEST(TrainingBufferTest, ConcurrentPushAndSample) {
  IntBuffer buf(paperConfig(), 13);
  Rng draws(1);
  for (int i = 0; i < 30; ++i) buf.push(i);  // warm both buffers
  std::thread producer([&] {
    for (int i = 30; i < 3000; ++i) buf.push(i);
  });
  std::thread consumer([&] {
    for (int i = 0; i < 500; ++i) {
      const auto b = buf.sampleBatch(draws);
      EXPECT_EQ(b.size(), 8u);
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(buf.received(), 3000u);
  EXPECT_EQ(buf.batchesSampled(), 500u);
}

TEST(TrainingBufferTest, CustomCapacities) {
  TrainingBufferConfig cfg;
  cfg.nowCapacity = 3;
  cfg.epCapacity = 2;
  cfg.nowPerBatch = 2;
  cfg.epPerBatch = 1;
  IntBuffer buf(cfg, 5);
  Rng draws(1);
  for (int i = 0; i < 10; ++i) buf.push(i);
  EXPECT_EQ(buf.nowSize(), 3u);
  EXPECT_EQ(buf.epSize(), 2u);
  EXPECT_EQ(buf.sampleBatch(draws).size(), 3u);
}

}  // namespace
}  // namespace artsci::replay
