#include <gtest/gtest.h>

#include <thread>

#include "common/thread_pool.hpp"
#include "openpmd/backends.hpp"
#include "openpmd/series.hpp"

namespace artsci::openpmd {
namespace {

/// One writer and one reader on a queue of 2: a test can write a step,
/// then read it back on the same thread.
std::shared_ptr<stream::SstEngine> oneToOneEngine() {
  return std::make_shared<stream::SstEngine>(stream::SstParams{1, 1, 2});
}

TEST(SeriesTest, WriteReadRoundTrip) {
  auto engine = oneToOneEngine();
  {
    Series series("khi", Access::kCreate, StreamBackend::forWriter(engine, 0));
    auto it = series.writeIteration(0);
    it.particles("e")
        .record("momentum")
        .component("x")
        .storeChunk({0.1, 0.2, 0.3}, {0}, {3}, {3});
    it.mesh("spectrum").scalar().store({1.0, 2.0}, {2});
    it.setTime(5.0, 0.1);
    it.close();
    series.close();
  }
  Series read("khi", Access::kRead, StreamBackend::forReader(engine, 0));
  auto it = read.readNextIteration();
  ASSERT_TRUE(it.has_value());
  EXPECT_EQ(it->index, 0);
  EXPECT_EQ(it->at("particles/e/momentum/x"),
            (std::vector<double>{0.1, 0.2, 0.3}));
  EXPECT_EQ(it->extents.at("particles/e/momentum/x"), (std::vector<long>{3}));
  EXPECT_EQ(it->at("meshes/spectrum"), (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(it->attribute("time"), 5.0);
  EXPECT_DOUBLE_EQ(it->attribute("dt"), 0.1);
  EXPECT_FALSE(read.readNextIteration().has_value());
}

TEST(SeriesTest, UnitDimensionAttributesStored) {
  auto engine = oneToOneEngine();
  {
    Series series("u", Access::kCreate, StreamBackend::forWriter(engine, 0));
    auto it = series.writeIteration(0);
    auto rec = it.particles("e").record("momentum");
    rec.setUnitDimension(kMomentum);
    rec.component("x").storeChunk({1.0}, {0}, {1}, {1}).setUnitSI(
        2.73092453e-22);  // m_e c
    it.close();
  }
  Series read("u", Access::kRead, StreamBackend::forReader(engine, 0));
  auto it = read.readNextIteration();
  ASSERT_TRUE(it.has_value());
  // unitDimension of momentum: L^1 M^1 T^-1.
  EXPECT_DOUBLE_EQ(
      it->attribute("particles/e/momentum.unitDimension.0"), 1.0);
  EXPECT_DOUBLE_EQ(
      it->attribute("particles/e/momentum.unitDimension.1"), 1.0);
  EXPECT_DOUBLE_EQ(
      it->attribute("particles/e/momentum.unitDimension.2"), -1.0);
  EXPECT_NEAR(it->attribute("particles/e/momentum/x.unitSI"),
              2.73092453e-22, 1e-30);
}

TEST(SeriesTest, WriteOnReadOnlySeriesRejected) {
  auto engine = oneToOneEngine();
  Series read("x", Access::kRead, StreamBackend::forReader(engine, 0));
  EXPECT_THROW(read.writeIteration(0), ContractError);
}

TEST(StreamBackendTest, InTransitIterationRoundTrip) {
  auto engine =
      std::make_shared<stream::SstEngine>(stream::SstParams{1, 1, 2});

  std::thread producer([&] {
    Series series("sim", Access::kCreate,
                  StreamBackend::forWriter(engine, 0));
    for (long s = 0; s < 3; ++s) {
      auto it = series.writeIteration(s);
      it.particles("e").record("position").component("x").storeChunk(
          {double(s), double(s) + 0.5}, {0}, {2}, {2});
      it.setAttribute("step", double(s));
      it.close();
    }
    series.close();
  });

  Series consumer("sim", Access::kRead, StreamBackend::forReader(engine, 0));
  long seen = 0;
  while (auto it = consumer.readNextIteration()) {
    EXPECT_EQ(it->at("particles/e/position/x"),
              (std::vector<double>{double(seen), double(seen) + 0.5}));
    EXPECT_DOUBLE_EQ(it->attribute("step"), double(seen));
    ++seen;
  }
  producer.join();
  EXPECT_EQ(seen, 3);
}

TEST(StreamBackendTest, TwoParallelStreams) {
  // The paper opens two streams: one for particles, one for radiation
  // (two separate PIConGPU output plugins).
  auto particleEngine =
      std::make_shared<stream::SstEngine>(stream::SstParams{1, 1, 2});
  auto radiationEngine =
      std::make_shared<stream::SstEngine>(stream::SstParams{1, 1, 2});

  std::thread producer([&] {
    Series particles("particles", Access::kCreate,
                     StreamBackend::forWriter(particleEngine, 0));
    Series radiation("radiation", Access::kCreate,
                     StreamBackend::forWriter(radiationEngine, 0));
    for (long s = 0; s < 2; ++s) {
      auto itP = particles.writeIteration(s);
      itP.particles("e").record("momentum").component("x").storeChunk(
          {1.0 * double(s)}, {0}, {1}, {1});
      itP.close();
      auto itR = radiation.writeIteration(s);
      itR.mesh("spectrum").scalar().store({2.0 * double(s)}, {1});
      itR.close();
    }
    particles.close();
    radiation.close();
  });

  Series pRead("particles", Access::kRead,
               StreamBackend::forReader(particleEngine, 0));
  Series rRead("radiation", Access::kRead,
               StreamBackend::forReader(radiationEngine, 0));
  for (long s = 0; s < 2; ++s) {
    auto itP = pRead.readNextIteration();
    auto itR = rRead.readNextIteration();
    ASSERT_TRUE(itP && itR);
    EXPECT_DOUBLE_EQ(itP->at("particles/e/momentum/x")[0], 1.0 * s);
    EXPECT_DOUBLE_EQ(itR->at("meshes/spectrum")[0], 2.0 * s);
  }
  producer.join();
}

TEST(StreamBackendTest, IterationIndexTravelsWithTheStep) {
  // Iterations 100 and 102 (not the stream's step numbers 0 and 1) come
  // back as written; the index is not left among the user attributes.
  auto engine = oneToOneEngine();
  std::thread producer([&] {
    Series series("sim", Access::kCreate,
                  StreamBackend::forWriter(engine, 0));
    for (long index : {100L, 102L}) {
      auto it = series.writeIteration(index);
      it.setAttribute("step", double(index));
      it.close();
    }
    series.close();
  });
  Series read("sim", Access::kRead, StreamBackend::forReader(engine, 0));
  for (long index : {100L, 102L}) {
    auto it = read.readNextIteration();
    ASSERT_TRUE(it.has_value());
    EXPECT_EQ(it->index, index);
    EXPECT_DOUBLE_EQ(it->attribute("step"), double(index));
    EXPECT_EQ(it->numericAttributes.size(), 1u);
  }
  EXPECT_FALSE(read.readNextIteration().has_value());
  producer.join();
}

TEST(StreamBackendTest, WritersOpeningDifferentIterationsThrow) {
  auto engine = std::make_shared<stream::SstEngine>(stream::SstParams{2, 1, 2});
  Series rank0("sim", Access::kCreate, StreamBackend::forWriter(engine, 0));
  Series rank1("sim", Access::kCreate, StreamBackend::forWriter(engine, 1));
  auto it = rank0.writeIteration(100);
  EXPECT_THROW(rank1.writeIteration(101), ContractError);
  // Rank 1 leaves mid-step; rank 0 publishes the step alone.
  rank1.close();
  it.close();
  rank0.close();
  Series read("sim", Access::kRead, StreamBackend::forReader(engine, 0));
  auto step = read.readNextIteration();
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(step->index, 100);
  EXPECT_FALSE(read.readNextIteration().has_value());
}

TEST(StreamBackendTest, MultiWriterRanksAssembleGlobally) {
  constexpr std::size_t kWriters = 3;
  auto engine = std::make_shared<stream::SstEngine>(
      stream::SstParams{kWriters, 1, 2});

  std::thread consumerThread([&] {
    Series consumer("sim", Access::kRead,
                    StreamBackend::forReader(engine, 0));
    auto it = consumer.readNextIteration();
    ASSERT_TRUE(it.has_value());
    EXPECT_EQ(it->at("particles/e/id"),
              (std::vector<double>{0, 1, 2, 3, 4, 5}));
  });

  runRankTeam(kWriters, [&](std::size_t rank) {
    Series series("sim", Access::kCreate,
                  StreamBackend::forWriter(engine, rank));
    auto it = series.writeIteration(0);
    const long off = static_cast<long>(rank) * 2;
    it.particles("e").record("id").scalar().storeChunk(
        {double(off), double(off + 1)}, {off}, {2}, {6});
    it.close();
    series.close();
  });
  consumerThread.join();
}

}  // namespace
}  // namespace artsci::openpmd
