#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/thread_pool.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "stream/sst.hpp"

namespace artsci::stream {
namespace {

Block makeBlock(std::vector<double> payload, std::vector<long> offset,
                std::vector<long> extent) {
  Block b;
  b.payload = std::move(payload);
  b.offset = std::move(offset);
  b.extent = std::move(extent);
  return b;
}

TEST(StepDataTest, Assemble1D) {
  StepData step;
  step.globalExtents["v"] = {6};
  step.variables["v"].push_back(makeBlock({1, 2, 3}, {0}, {3}));
  step.variables["v"].push_back(makeBlock({4, 5, 6}, {3}, {3}));
  EXPECT_EQ(step.assemble("v"), (std::vector<double>{1, 2, 3, 4, 5, 6}));
}

TEST(StepDataTest, Assemble2DBlocks) {
  // global 2x4, two blocks of 2x2.
  StepData step;
  step.globalExtents["m"] = {2, 4};
  step.variables["m"].push_back(makeBlock({1, 2, 5, 6}, {0, 0}, {2, 2}));
  step.variables["m"].push_back(makeBlock({3, 4, 7, 8}, {0, 2}, {2, 2}));
  EXPECT_EQ(step.assemble("m"),
            (std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(StepDataTest, TotalBytes) {
  StepData step;
  step.globalExtents["v"] = {4};
  step.variables["v"].push_back(makeBlock({1, 2, 3, 4}, {0}, {4}));
  EXPECT_EQ(step.totalBytes(), 4 * sizeof(double));
}

TEST(StepDataTest, UnknownVariableThrows) {
  StepData step;
  EXPECT_THROW(step.assemble("nope"), ContractError);
}

TEST(Sst, WritersMustAgreeOnStepAttributes) {
  SstEngine engine(SstParams{2, 1, 2});
  auto w0 = engine.makeWriter(0);
  auto w1 = engine.makeWriter(1);
  auto reader = engine.makeReader(0);
  w0.beginStep();
  w1.beginStep();
  w0.setAttribute("time", 0.5);
  w1.setAttribute("time", 0.5);
  w0.setAttribute("species", std::string("e"));
  EXPECT_THROW(w1.setAttribute("time", 0.25), ContractError);
  EXPECT_THROW(w1.setAttribute("species", std::string("i")), ContractError);
  w1.close();  // leaves mid-step, so rank 0 publishes alone
  w0.endStep();
  auto step = reader.beginStep();
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->numericAttributes.at("time"), 0.5);
  EXPECT_EQ(step->stringAttributes.at("species"), "e");
  reader.endStep();
  w0.close();
}

TEST(Sst, SingleWriterSingleReaderRoundTrip) {
  SstEngine engine(SstParams{1, 1, 2});
  auto writer = engine.makeWriter(0);
  auto reader = engine.makeReader(0);

  std::thread producer([&] {
    for (long s = 0; s < 3; ++s) {
      writer.beginStep();
      writer.put("data", makeBlock({double(s), double(s + 1)}, {0}, {2}),
                 {2});
      writer.setAttribute("time", 0.1 * static_cast<double>(s));
      writer.endStep();
    }
    writer.close();
  });

  long seen = 0;
  while (auto step = reader.beginStep()) {
    EXPECT_EQ(step->step, seen);
    EXPECT_EQ(step->assemble("data"),
              (std::vector<double>{double(seen), double(seen + 1)}));
    EXPECT_NEAR(step->numericAttributes.at("time"), 0.1 * seen, 1e-12);
    reader.endStep();
    ++seen;
  }
  producer.join();
  EXPECT_EQ(seen, 3);
  EXPECT_EQ(engine.stepsPublished(), 3);
}

TEST(Sst, MultiWriterBlocksGathered) {
  constexpr std::size_t kWriters = 4;
  SstEngine engine(SstParams{kWriters, 1, 2});
  auto reader = engine.makeReader(0);

  std::thread consumer([&] {
    auto step = reader.beginStep();
    ASSERT_NE(step, nullptr);
    EXPECT_EQ(step->variables.at("x").size(), kWriters);
    const auto full = step->assemble("x");
    for (std::size_t i = 0; i < kWriters * 2; ++i)
      EXPECT_DOUBLE_EQ(full[i], static_cast<double>(i));
    reader.endStep();
    EXPECT_EQ(reader.beginStep(), nullptr);
  });

  runRankTeam(kWriters, [&](std::size_t rank) {
    auto writer = engine.makeWriter(rank);
    writer.beginStep();
    const double base = static_cast<double>(rank * 2);
    writer.put("x", makeBlock({base, base + 1}, {static_cast<long>(rank * 2)},
                              {2}),
               {static_cast<long>(kWriters * 2)});
    writer.endStep();
    writer.close();
  });
  consumer.join();
}

TEST(Sst, BackPressureStallsWriter) {
  SstEngine engine(SstParams{1, 1, /*queueLimit=*/1});
  auto writer = engine.makeWriter(0);
  auto reader = engine.makeReader(0);

  std::thread producer([&] {
    for (long s = 0; s < 4; ++s) {
      writer.beginStep();
      writer.put("v", makeBlock(std::vector<double>(1024, 1.0), {0}, {1024}),
                 {1024});
      writer.endStep();  // blocks while the queue holds an unread step
    }
    writer.close();
  });

  long seen = 0;
  while (auto step = reader.beginStep()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    reader.endStep();
    ++seen;
  }
  producer.join();
  EXPECT_EQ(seen, 4);
  // Producer had to wait for the slow consumer.
  EXPECT_GT(engine.writerStallSeconds(), 0.02);
}

TEST(Sst, MultiReaderGroupSeesSameSteps) {
  constexpr std::size_t kReaders = 3;
  SstEngine engine(SstParams{1, kReaders, 2});

  std::thread producer([&] {
    auto writer = engine.makeWriter(0);
    for (long s = 0; s < 5; ++s) {
      writer.beginStep();
      writer.put("v", makeBlock({double(s)}, {0}, {1}), {1});
      writer.endStep();
    }
    writer.close();
  });

  std::vector<std::vector<long>> seen(kReaders);
  runRankTeam(kReaders, [&](std::size_t rank) {
    auto reader = engine.makeReader(rank);
    while (auto step = reader.beginStep()) {
      seen[rank].push_back(step->step);
      reader.endStep();
    }
  });
  producer.join();
  for (std::size_t r = 0; r < kReaders; ++r)
    EXPECT_EQ(seen[r], (std::vector<long>{0, 1, 2, 3, 4}));
}

TEST(Sst, LocalityAwareBlockAssignment) {
  constexpr std::size_t kWriters = 4, kReaders = 2;
  SstEngine engine(SstParams{kWriters, kReaders, 2});

  std::thread producerGroup([&] {
    runRankTeam(kWriters, [&](std::size_t rank) {
      auto writer = engine.makeWriter(rank);
      writer.beginStep();
      writer.put("v",
                 makeBlock({double(rank)}, {static_cast<long>(rank)}, {1}),
                 {static_cast<long>(kWriters)});
      writer.endStep();
      writer.close();
    });
  });

  std::vector<std::vector<std::size_t>> assigned(kReaders);
  runRankTeam(kReaders, [&](std::size_t rank) {
    auto reader = engine.makeReader(rank);
    while (auto step = reader.beginStep()) {
      for (const Block* b : reader.myBlocks(*step, "v"))
        assigned[rank].push_back(b->writerRank);
      reader.endStep();
    }
  });
  producerGroup.join();
  // writer ranks 0,2 -> reader 0; 1,3 -> reader 1; disjoint and complete.
  EXPECT_EQ(assigned[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(assigned[1], (std::vector<std::size_t>{1, 3}));
}

TEST(Sst, ExtentMismatchRejected) {
  SstEngine engine(SstParams{2, 1, 2});
  std::atomic<bool> threw{false};
  runRankTeam(2, [&](std::size_t rank) {
    auto writer = engine.makeWriter(rank);
    writer.beginStep();
    try {
      writer.put("v", makeBlock({1.0}, {static_cast<long>(rank)}, {1}),
                 {static_cast<long>(2 + rank)});  // ranks disagree
    } catch (const ContractError&) {
      threw = true;
    }
    // Don't deadlock the group: both ranks still end their step.
    writer.endStep();
    writer.close();
  });
  EXPECT_TRUE(threw.load());
}

TEST(Sst, LateEndStepKeepsCapturedStepId) {
  // Regression for the writer step-id race: endStep used to read its
  // step id from the shared assembling step at *end* time, so a rank
  // whose endStep ran late — after the group published and the next
  // beginStep had re-created assembling_ — adopted the NEXT step's id
  // and waited on the wrong publication. The id is now captured at
  // beginStep, and beginStep cannot open a new step until every rank of
  // the previous group has left endStep. Hammer the interleaving:
  // several writer ranks with deliberately skewed per-rank timing, a
  // periodically slow reader, and queueLimit=1 so publications
  // interleave tightly with the group waits.
  constexpr std::size_t kWriters = 4;
  constexpr long kSteps = 40;
  SstEngine engine(SstParams{kWriters, 1, /*queueLimit=*/1});

  std::thread producerGroup([&] {
    runRankTeam(kWriters, [&](std::size_t rank) {
      auto writer = engine.makeWriter(rank);
      for (long s = 0; s < kSteps; ++s) {
        writer.beginStep();
        // Payload tags (step, rank): a rank working against the wrong
        // step would misplace its tag.
        writer.put("tag",
                   makeBlock({double(s), double(rank)},
                             {static_cast<long>(rank * 2)}, {2}),
                   {static_cast<long>(kWriters * 2)});
        // Skew the ranks so some endStep calls arrive long after the
        // rest of the group (the racy interleaving).
        if ((s + static_cast<long>(rank)) % static_cast<long>(kWriters) == 0)
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        writer.endStep();
      }
      writer.close();
    });
  });

  auto reader = engine.makeReader(0);
  long expected = 0;
  while (auto step = reader.beginStep()) {
    EXPECT_EQ(step->step, expected);
    const auto& blocks = step->variables.at("tag");
    ASSERT_EQ(blocks.size(), kWriters);  // exactly one block per rank
    std::vector<bool> seen(kWriters, false);
    for (const Block& b : blocks) {
      ASSERT_EQ(b.payload.size(), 2u);
      EXPECT_EQ(b.payload[0], double(expected));  // tag is for THIS step
      EXPECT_EQ(b.payload[1], double(b.writerRank));
      seen[b.writerRank] = true;
    }
    for (std::size_t r = 0; r < kWriters; ++r) EXPECT_TRUE(seen[r]);
    if (expected % 5 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    reader.endStep();
    ++expected;
  }
  producerGroup.join();
  EXPECT_EQ(expected, kSteps);
  EXPECT_EQ(engine.stepsPublished(), kSteps);
}

TEST(Sst, PutOutsideStepRejected) {
  SstEngine engine(SstParams{1, 1, 2});
  auto writer = engine.makeWriter(0);
  EXPECT_THROW(writer.put("v", makeBlock({1.0}, {0}, {1}), {1}),
               ContractError);
}

TEST(Sst, PutRejectsABlockThatDoesNotFitItsVariable) {
  // StepData::assemble copies block rows to their offsets unchecked, so
  // put refuses each of these before it queues anything. Each case puts
  // to a variable of its own, so no case's extent decides another's.
  struct Case {
    const char* what;
    Block block;
    std::vector<long> global;
  };
  const std::vector<Case> cases{
      {"rank 0", makeBlock({1.0}, {}, {}), {}},
      {"negative offset", makeBlock({1, 2}, {-1}, {2}), {10}},
      {"negative extent", makeBlock({}, {0}, {-2}), {10}},
      {"past the end", makeBlock(std::vector<double>(10, 1.0), {5}, {10}),
       {10}},
      {"past the end of axis 1",
       makeBlock(std::vector<double>(4, 1.0), {0, 3}, {2, 2}), {2, 4}},
      {"short payload", makeBlock({1, 2, 3, 4}, {0}, {10}), {10}},
      {"long payload", makeBlock(std::vector<double>(11, 1.0), {0}, {10}),
       {10}},
      {"global extent overflows", makeBlock({1.0}, {0, 0}, {1, 1}),
       {1L << 40, 1L << 40}},
  };
  SstEngine engine(SstParams{1, 1, 2});
  auto writer = engine.makeWriter(0);
  auto reader = engine.makeReader(0);
  writer.beginStep();
  for (const Case& c : cases)
    EXPECT_THROW(writer.put(c.what, c.block, c.global), ContractError)
        << c.what;
  writer.put("v", makeBlock({1, 2}, {8}, {2}), {10});
  writer.endStep();
  writer.close();
  const auto step = reader.beginStep();
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->variables.size(), 1u);
  EXPECT_EQ(step->globalExtents.size(), 1u);
  EXPECT_EQ(step->assemble("v"),
            (std::vector<double>{0, 0, 0, 0, 0, 0, 0, 0, 1, 2}));
  reader.endStep();
}

TEST(Sst, BytesPublishedAccounted) {
  SstEngine engine(SstParams{1, 1, 4});
  auto writer = engine.makeWriter(0);
  auto reader = engine.makeReader(0);
  writer.beginStep();
  writer.put("v", makeBlock(std::vector<double>(100, 0.0), {0}, {100}),
             {100});
  writer.endStep();
  writer.close();
  auto step = reader.beginStep();
  reader.endStep();
  EXPECT_EQ(engine.bytesPublished(), 100 * sizeof(double));
}

TEST(Sst, CloseMidStepPublishesRemainderAndShrinksGroup) {
  // Close audit (companion to LateEndStepKeepsCapturedStepId): a rank
  // that close()s with a group step in flight must not strand the step —
  // the remaining writers publish it (the departed rank's puts included),
  // and end-of-stream arrives only after every rank closed. Scripted
  // single-threaded so every interleaving decision is explicit.
  SstEngine engine(SstParams{2, 1, /*queueLimit=*/2});
  auto wa = engine.makeWriter(0);
  auto wb = engine.makeWriter(1);
  auto reader = engine.makeReader(0);

  wa.beginStep();
  wb.beginStep();
  wa.put("tag", makeBlock({0.0}, {0}, {1}), {2});
  wb.put("tag", makeBlock({1.0}, {1}, {1}), {2});
  wb.close();    // leaves mid-step: the group shrinks to {rank 0}
  wa.endStep();  // publishes solo — must not wait for the departed rank

  // Rank 0 continues alone.
  wa.beginStep();
  wa.put("tag", makeBlock({0.0}, {0}, {1}), {2});
  wa.endStep();
  wa.close();

  auto step0 = reader.beginStep();
  ASSERT_NE(step0, nullptr);
  EXPECT_EQ(step0->step, 0);
  EXPECT_EQ(step0->variables.at("tag").size(), 2u);  // both puts survived
  reader.endStep();
  auto step1 = reader.beginStep();
  ASSERT_NE(step1, nullptr);
  EXPECT_EQ(step1->step, 1);
  EXPECT_EQ(step1->variables.at("tag").size(), 1u);
  reader.endStep();
  EXPECT_EQ(reader.beginStep(), nullptr);  // clean end-of-stream
  EXPECT_FALSE(engine.failed());
}

TEST(Sst, StaggeredWriterClosuresNeverStrandPeers) {
  // The close() audit under concurrency: three writers leave the group at
  // different step counts (5, 8, 11). Each departure must wake the
  // remaining enders — the shrunk group publishes with fewer blocks, the
  // reader drains every step, and nobody hangs.
  constexpr std::size_t kWriters = 3;
  const long stepsOf[kWriters] = {5, 8, 11};
  SstEngine engine(SstParams{kWriters, 1, /*queueLimit=*/1});

  std::thread producerGroup([&] {
    runRankTeam(kWriters, [&](std::size_t rank) {
      auto writer = engine.makeWriter(rank);
      for (long s = 0; s < stepsOf[rank]; ++s) {
        writer.beginStep();
        writer.put("tag",
                   makeBlock({double(s)}, {static_cast<long>(rank)}, {1}),
                   {static_cast<long>(kWriters)});
        writer.endStep();
      }
      writer.close();
    });
  });

  auto reader = engine.makeReader(0);
  long expected = 0;
  while (auto step = reader.beginStep()) {
    EXPECT_EQ(step->step, expected);
    const std::size_t alive =
        expected < 5 ? 3u : (expected < 8 ? 2u : 1u);
    EXPECT_EQ(step->variables.at("tag").size(), alive)
        << "step " << expected;
    reader.endStep();
    ++expected;
  }
  producerGroup.join();
  EXPECT_EQ(expected, 11);
  EXPECT_FALSE(engine.failed());
}

TEST(Sst, StepTimeoutThrowsTypedErrorAndFailsStream) {
  // queueLimit=1 and no reader: the second endStep back-pressures
  // forever, so the 20 ms deadline must fire — typed StreamTimeoutError,
  // the stream failed for everyone, and the counter bumped.
  auto& timeouts = obs::Registry::global().counter("sst.step_timeouts");
  const std::uint64_t before = timeouts.value();
  SstEngine engine(SstParams{1, 1, /*queueLimit=*/1,
                             /*stepTimeoutMicros=*/20000});
  auto writer = engine.makeWriter(0);
  writer.beginStep();
  writer.put("v", makeBlock({1.0}, {0}, {1}), {1});
  writer.endStep();  // queue now full

  writer.beginStep();
  writer.put("v", makeBlock({2.0}, {0}, {1}), {1});
  EXPECT_THROW(writer.endStep(), StreamTimeoutError);
  EXPECT_EQ(timeouts.value(), before + 1);
  EXPECT_TRUE(engine.failed());
  EXPECT_FALSE(engine.failReason().empty());

  // The failure is stream-wide: the reader fails fast instead of being
  // handed the stale queued step, and further writer calls fail too.
  auto reader = engine.makeReader(0);
  EXPECT_THROW(reader.beginStep(), StreamPeerFailedError);
  EXPECT_THROW(writer.beginStep(), StreamPeerFailedError);
}

TEST(Sst, InjectedPeerDeathAbortsTheWholeGroup) {
  // Seeded fault plan: the writer's 2nd endStep dies. The writer sees
  // PeerDeathError; the reader must wake with StreamPeerFailedError
  // carrying the death notice, never hang. The engine fails fast, so the
  // error comes from whichever reader call follows the death: step 0's
  // beginStep/endStep when the death lands first, else the wait for
  // step 1.
  fault::ScopedPlan plan(
      fault::Plan::parseSpec("sst.writer.end_step@2:die"));
  SstEngine engine(SstParams{1, 1, /*queueLimit=*/2});

  std::atomic<bool> writerDied{false};
  // A jthread joins on every exit path: leaving the scope with a joinable
  // std::thread (an unexpected exception, a failed ASSERT) would call
  // std::terminate.
  std::jthread producer([&] {
    auto writer = engine.makeWriter(0);
    try {
      for (long s = 0; s < 3; ++s) {
        writer.beginStep();
        writer.put("v", makeBlock({double(s)}, {0}, {1}), {1});
        writer.endStep();
      }
      writer.close();
    } catch (const fault::PeerDeathError&) {
      writerDied.store(true);
    }
  });

  auto reader = engine.makeReader(0);
  try {
    auto step0 = reader.beginStep();
    ASSERT_NE(step0, nullptr);
    EXPECT_EQ(step0->step, 0);
    reader.endStep();
    while (auto step = reader.beginStep()) reader.endStep();
    FAIL() << "reader saw clean end-of-stream from a dead peer";
  } catch (const StreamPeerFailedError& e) {
    EXPECT_NE(std::string(e.what()).find("died"), std::string::npos);
  }
  producer.join();
  EXPECT_TRUE(writerDied.load());
  EXPECT_TRUE(engine.failed());
  EXPECT_GE(fault::Plan::global().injectedCount(), 1u);
}

TEST(Sst, AbortWakesBlockedWriter) {
  // Explicit abort() (what the pipeline supervisor calls when the sibling
  // channel fails) must wake a writer stuck in back-pressure.
  SstEngine engine(SstParams{1, 1, /*queueLimit=*/1});
  auto writer = engine.makeWriter(0);
  writer.beginStep();
  writer.put("v", makeBlock({1.0}, {0}, {1}), {1});
  writer.endStep();  // fills the queue

  std::atomic<bool> unblocked{false};
  std::thread stuck([&] {
    try {
      writer.beginStep();
      writer.put("v", makeBlock({2.0}, {0}, {1}), {1});
      writer.endStep();  // blocks: queue full, nobody reading
    } catch (const StreamPeerFailedError&) {
      unblocked.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine.abort("partner channel failed");
  stuck.join();
  EXPECT_TRUE(unblocked.load());
  EXPECT_EQ(engine.failReason(), "partner channel failed");
}

}  // namespace
}  // namespace artsci::stream
