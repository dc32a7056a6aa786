/// Tests for the observability subsystem (src/obs): the deterministic
/// metrics aggregation invariant (bit-identical snapshots no matter how
/// many threads recorded the same observation multiset) and the span
/// tracer's recording + Chrome-JSON flush contract.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace artsci::obs {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(ObsCounter, ExactAcrossThreads) {
  Counter c;
  std::vector<std::thread> team;
  for (int t = 0; t < 8; ++t)
    team.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.add();
      c.add(5);
    });
  for (auto& th : team) th.join();
  EXPECT_EQ(c.value(), 8u * 1005u);
}

/// Observe `vals` round-robin across `threads` threads into a fresh
/// histogram and snapshot it.
Histogram::Snapshot observeWith(int threads, const std::vector<double>& vals) {
  Histogram h;
  std::vector<std::thread> team;
  for (int t = 0; t < threads; ++t)
    team.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < vals.size();
           i += static_cast<std::size_t>(threads))
        h.observe(vals[i]);
    });
  for (auto& th : team) th.join();
  return h.snapshot();
}

TEST(ObsHistogram, BitIdenticalAcrossThreadCounts) {
  // Values spanning many octaves, including negatives and zero (bucket 0)
  // and exact powers of two (bucket-boundary cases).
  std::vector<double> vals;
  for (int i = 0; i < 500; ++i) {
    vals.push_back(0.001 * i * i - 0.05);
    vals.push_back(1.0 / (1 + i));
    if (i % 37 == 0) vals.push_back(static_cast<double>(1 << (i % 20)));
  }
  const Histogram::Snapshot ref = observeWith(1, vals);
  for (int threads : {2, 3, 8}) {
    const Histogram::Snapshot s = observeWith(threads, vals);
    EXPECT_EQ(s.count, ref.count) << threads << " threads";
    // Integer aggregation: these doubles derive from exact integer sums,
    // so equality is bitwise, not approximate.
    EXPECT_EQ(s.sum, ref.sum) << threads << " threads";
    EXPECT_EQ(s.min, ref.min) << threads << " threads";
    EXPECT_EQ(s.max, ref.max) << threads << " threads";
    EXPECT_EQ(s.buckets, ref.buckets) << threads << " threads";
  }
}

TEST(ObsHistogram, EmptySnapshot) {
  Histogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

TEST(ObsHistogram, BucketBoundaries) {
  // Bucket i covers (2^(i-1+kMinExp), 2^(i+kMinExp)]: an exact power of
  // two sits in the bucket it bounds, anything above moves up one.
  EXPECT_EQ(Histogram::bucketOf(Histogram::bucketBound(0)), 0);
  EXPECT_EQ(Histogram::bucketOf(1.0), -Histogram::kMinExp);
  EXPECT_EQ(Histogram::bucketOf(1.5), -Histogram::kMinExp + 1);
  EXPECT_EQ(Histogram::bucketOf(2.0), -Histogram::kMinExp + 1);
  EXPECT_EQ(Histogram::bucketOf(0.0), 0);
  EXPECT_EQ(Histogram::bucketOf(-7.0), 0);
  EXPECT_EQ(Histogram::bucketOf(1e300), Histogram::kBuckets - 1);
  EXPECT_DOUBLE_EQ(Histogram::bucketBound(-Histogram::kMinExp), 1.0);
}

TEST(ObsHistogram, QuantileMonotoneAndCoversRange) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(0.01 * i);
  const auto s = h.snapshot();
  double prev = 0.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = s.quantile(q);
    EXPECT_GE(v, prev) << "quantile not monotone at q=" << q;
    prev = v;
  }
  // Coarse (power-of-2 bucket bound) but bracketing the true value.
  EXPECT_GE(s.quantile(0.5), 5.0);
  EXPECT_LE(s.quantile(0.5), 10.0);
}

TEST(ObsRegistry, LookupIsStableAndSnapshotNameSorted) {
  Registry r;
  Counter& b = r.counter("b.second");
  Counter& a = r.counter("a.first");
  EXPECT_EQ(&r.counter("b.second"), &b);
  a.add(1);
  b.add(2);
  r.gauge("z.gauge").set(3.5);
  r.histogram("m.hist").observe(1.0);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[1].first, "b.second");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].second, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 3.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

TEST(ObsRegistry, ToJsonListsAllKinds) {
  Registry r;
  r.counter("pic.steps").add(7);
  r.gauge("replay.now_size").set(10);
  r.histogram("train.step_ms").observe(2.5);
  const std::string json = r.toJson();
  EXPECT_TRUE(contains(json, "\"counters\""));
  EXPECT_TRUE(contains(json, "\"pic.steps\": 7"));
  EXPECT_TRUE(contains(json, "\"replay.now_size\": 10"));
  EXPECT_TRUE(contains(json, "\"train.step_ms\""));
  EXPECT_TRUE(contains(json, "\"p99\""));
}

TEST(ObsStepReporter, CadenceAndCounterDeltas) {
  Registry r;
  Counter& c = r.counter("x.count");
  StepReporter rep(r, 3);
  c.add(5);
  EXPECT_FALSE(rep.onStep().has_value());
  EXPECT_FALSE(rep.onStep().has_value());
  const auto line = rep.onStep();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(contains(*line, "step 3"));
  EXPECT_TRUE(contains(*line, "x.count +5"));
  c.add(2);
  rep.onStep();
  rep.onStep();
  const auto line2 = rep.onStep();
  ASSERT_TRUE(line2.has_value());
  EXPECT_TRUE(contains(*line2, "x.count +2"));
}

TEST(ObsTrace, DisabledRecordsNothing) {
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.setEnabled(false);
  {
    TRACE_SCOPE("test", "disabled_span");
  }
  EXPECT_EQ(rec.eventCount(), 0u);
}

TEST(ObsTrace, RecordsNestedSpansAndFlushesChromeJson) {
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.setEnabled(true);
  rec.setThreadName("test main");
  rec.setThreadRank(2);
  {
    TRACE_SCOPE("test", "outer");
    {
      TRACE_SCOPE("test", "inner");
    }
  }
  rec.setEnabled(false);
  EXPECT_EQ(rec.eventCount(), 2u);

  std::ostringstream os;
  rec.writeJson(os);
  const std::string json = os.str();
  EXPECT_TRUE(contains(json, "\"traceEvents\""));
  EXPECT_TRUE(contains(json, "\"ph\": \"X\""));
  EXPECT_TRUE(contains(json, "\"name\": \"outer\""));
  EXPECT_TRUE(contains(json, "\"name\": \"inner\""));
  EXPECT_TRUE(contains(json, "\"cat\": \"test\""));
  EXPECT_TRUE(contains(json, "\"pid\": 2"));
  EXPECT_TRUE(contains(json, "test main"));
  EXPECT_TRUE(contains(json, "process_name"));
  EXPECT_TRUE(contains(json, "thread_name"));

  rec.clear();
  EXPECT_EQ(rec.eventCount(), 0u);
  rec.setThreadRank(0);
}

TEST(ObsTrace, SpansNestCorrectly) {
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.setEnabled(true);
  const std::uint64_t before = TraceRecorder::nowNs();
  {
    TRACE_SCOPE("test", "outer");
    TRACE_SCOPE("test", "inner");
  }
  const std::uint64_t after = TraceRecorder::nowNs();
  rec.setEnabled(false);

  // Destruction order records inner first; both lie within [before, after]
  // and inner nests inside outer.
  std::ostringstream os;
  rec.writeJson(os);
  EXPECT_EQ(rec.eventCount(), 2u);
  EXPECT_GE(after, before);
  rec.clear();
}

TEST(ObsTrace, RingWrapCountsDropped) {
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.setEnabled(true);
  const std::uint64_t droppedBefore = rec.droppedCount();
  // A fresh thread gets a fresh ring, which it overfills by six events.
  std::thread t([&rec] {
    for (std::size_t i = 0; i < TraceRecorder::kRingEvents + 6; ++i)
      rec.record("test", "wrap", TraceRecorder::nowNs(),
                 TraceRecorder::nowNs());
  });
  t.join();
  rec.setEnabled(false);
  EXPECT_EQ(rec.eventCount(), TraceRecorder::kRingEvents);
  EXPECT_EQ(rec.droppedCount() - droppedBefore, 6u);
  rec.clear();
}

TEST(ObsTrace, PerThreadRankAttribution) {
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.setEnabled(true);
  std::vector<std::thread> team;
  for (int r = 0; r < 3; ++r)
    team.emplace_back([&rec, r] {
      rec.setThreadRank(r);
      rec.setThreadName("worker " + std::to_string(r));
      TRACE_SCOPE("test", "work");
    });
  for (auto& th : team) th.join();
  rec.setEnabled(false);
  EXPECT_EQ(rec.eventCount(), 3u);
  std::ostringstream os;
  rec.writeJson(os);
  const std::string json = os.str();
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(contains(json, "worker " + std::to_string(r)));
    EXPECT_TRUE(contains(json, "\"pid\": " + std::to_string(r)));
  }
  rec.clear();
}

TEST(ObsTrace, LabelOnlyThreadsReserveNoRing) {
  // Rank teams and trainer threads label themselves every step; with
  // tracing off they must not pin a ring each (peak RSS grew ~2 MiB per
  // streamed step when labelling allocated the ring).
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.setEnabled(false);
  const std::size_t reservedBefore = rec.reservedEvents();
  for (int r = 0; r < 8; ++r) {
    std::thread t([&rec, r] {
      rec.setThreadRank(r);
      rec.setThreadName("label only " + std::to_string(r));
      TRACE_SCOPE("test", "disabled_span");
    });
    t.join();
  }
  EXPECT_EQ(rec.reservedEvents(), reservedBefore);

  // A labelled thread that records later still exports under its name.
  rec.setEnabled(true);
  std::thread late([&rec] {
    rec.setThreadRank(5);
    rec.setThreadName("late recorder");
    TRACE_SCOPE("test", "late_span");
  });
  late.join();
  rec.setEnabled(false);
  EXPECT_GT(rec.reservedEvents(), reservedBefore);
  EXPECT_EQ(rec.eventCount(), 1u);
  EXPECT_EQ(rec.droppedCount(), 0u);
  std::ostringstream os;
  rec.writeJson(os);
  const std::string json = os.str();
  const auto named = json.find("\"late recorder\"");
  ASSERT_NE(named, std::string::npos);
  // The span carries the named thread's (pid, tid): pid 5 is this rank.
  const auto meta = json.rfind("\"tid\": ", named);
  ASSERT_NE(meta, std::string::npos);
  const std::string tid = json.substr(meta, json.find(',', meta) - meta);
  const auto span = json.find("\"name\": \"late_span\"");
  ASSERT_NE(span, std::string::npos);
  const auto spanEnd = json.find('}', span);
  const std::string spanJson = json.substr(span, spanEnd - span);
  EXPECT_TRUE(contains(spanJson, "\"pid\": 5")) << spanJson;
  EXPECT_TRUE(spanJson.ends_with(tid)) << spanJson << " vs " << tid;
  rec.clear();
}

}  // namespace
}  // namespace artsci::obs
