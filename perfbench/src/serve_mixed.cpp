/// `serve_mixed`: serve::NetServer (2 shards, default BatchPolicy) serving
/// the reduced model to one TCP client connection while a publisher
/// republishes the same weights every 50 ms.
///
/// Requests: 4 in 5 PredictSpectrum on 128-point clouds, 1 in 5
/// InvertSpectrum, each on an input generated from (seed, request index),
/// so no two requests share an input. Phase 1 is open loop at 10 000
/// req/s for 30% of --seconds, each request timed from when it was due;
/// phase 2 is closed loop with 256 requests outstanding for the work of the
/// other 70% at nominal capacity. The load generator is three threads:
/// sender (this thread), reader, publisher.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/timer.hpp"
#include "core/model.hpp"
#include "ml/serialize.hpp"
#include "serve/client.hpp"
#include "serve/net_server.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace artsci;
namespace proto = serve::proto;

constexpr long kPoints = 128;         // the pipeline's cloud sample size
// About a third of capacity (~30 000 req/s on 4 cores). At half, the host's
// slow spells pushed the open loop past the knee of the latency curve.
constexpr double kOpenLoopRate = 10000.0;  // req/s
constexpr double kNominalCapacity = 30000.0;  // req/s, sizes phase 2
// Shares of --seconds. Throughput, the figure the host's speed moves most,
// gets the larger one; the open loop's latencies are steady with less.
constexpr double kOpenShare = 0.3;
constexpr double kClosedShare = 0.7;
constexpr long kWindow = 256;         // closed-loop requests outstanding
constexpr long kWarmupRequests = 2000;
// The timed figures are read from the best tenth of slices (kBestTenth):
// the open loop's requests in slices of 60 (6 ms, 1 000 slices at
// --seconds 20), the closed loop's replies in slices of 512 (~17 ms, ~700
// slices). Short slices find the moments the host ran at full speed even
// in a run it slowed throughout; many of them keep their percentile steady.
constexpr long kRequestsPerSlice = 60;
constexpr long kRepliesPerSlice = 512;
constexpr auto kPublishEvery = std::chrono::milliseconds(50);

enum class Kind : std::uint8_t { kPredict, kInvert };
enum class State : std::uint8_t { kPending, kOk, kError, kBadReply };

struct RequestRecord {
  std::int64_t dueNs = 0;
  std::int64_t sentNs = 0;
  std::int64_t replyNs = 0;
  std::uint64_t hash = 0;  ///< FNV-1a of a PredictSpectrum reply's bytes
  Kind kind = Kind::kPredict;
  State state = State::kPending;
};

std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

/// The request stream of one run: kinds and inputs from the seed alone.
class RequestSource {
 public:
  RequestSource(std::uint64_t seed, long count, long spectrumDim)
      : seed_(seed), spectrumDim_(spectrumDim),
        kinds_(static_cast<std::size_t>(count), Kind::kPredict) {
    Rng order(deriveSeed(seed, 20));
    for (long block = 0; block * 5 < count; ++block) {
      const long slot = block * 5 + static_cast<long>(order() % 5);
      if (slot < count) kinds_[static_cast<std::size_t>(slot)] = Kind::kInvert;
    }
  }
  Kind kind(long i) const { return kinds_[static_cast<std::size_t>(i)]; }
  /// Request i's input: a normalized cloud [kPoints x 6] or a spectrum.
  void input(long i, std::vector<ml::Real>& out) const {
    if (kind(i) == Kind::kInvert)
      spectrum(i, out);
    else
      cloud(i, out);
  }
  void cloud(long i, std::vector<ml::Real>& out) const {
    Rng rng(deriveSeed(seed_, 1000 + static_cast<std::uint64_t>(i)));
    out.resize(static_cast<std::size_t>(kPoints * 6));
    for (long p = 0; p < kPoints; ++p) {
      for (int c = 0; c < 3; ++c) out[p * 6 + c] = rng.uniform(-1.0, 1.0);
      for (int c = 3; c < 6; ++c) out[p * 6 + c] = rng.uniform(-0.5, 0.5);
    }
  }
  void spectrum(long i, std::vector<ml::Real>& out) const {
    Rng rng(deriveSeed(seed_, 1000 + static_cast<std::uint64_t>(i)));
    out.resize(static_cast<std::size_t>(spectrumDim_));
    for (auto& v : out) v = rng.uniform(0.0, 0.8);
  }
  std::vector<std::uint8_t> frame(long i, std::vector<ml::Real>& scratch) const {
    input(i, scratch);
    return proto::encodeRequest(kind(i) == Kind::kPredict
                                    ? proto::MsgType::kPredictSpectrum
                                    : proto::MsgType::kInvertSpectrum,
                                static_cast<std::uint64_t>(i) + 1, 0, scratch);
  }

 private:
  std::uint64_t seed_;
  long spectrumDim_;
  std::vector<Kind> kinds_;
};

/// Republishes one snapshot's weights every 50 ms, as the in-transit
/// trainer would; each publish makes every shard rebuild its engine.
class Publisher {
 public:
  explicit Publisher(std::shared_ptr<serve::ModelRegistry> registry)
      : registry_(std::move(registry)), model_(registry_->current()->model),
        thread_([this] { loop(); }) {}
  ~Publisher() { stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  long publishes() const { return publishes_.load(); }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, kPublishEvery, [this] { return stopping_; })) {
      registry_->publish(model_, "republish");
      publishes_.fetch_add(1);
    }
  }

  std::shared_ptr<serve::ModelRegistry> registry_;
  std::shared_ptr<const core::ArtificialScientistModel> model_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::atomic<long> publishes_{0};
  std::thread thread_;  // last: starts after the members it uses
};

/// One client connection: the sender is the calling thread, a reader
/// thread stamps every reply into its request record.
class LoadGen {
 public:
  LoadGen(std::uint16_t port, const RequestSource& source, long total)
      : client_("127.0.0.1", port, clientOptions()), source_(source),
        records_(initialRecords(source, total)),
        reader_([this] { readLoop(); }) {}
  ~LoadGen() { finish(); }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Requests [first, first + count) at kOpenLoopRate on an absolute
  /// schedule; returns once every reply arrived (or the reader gave up).
  void openLoop(long first, long count) {
    // Wake within ~1 us of each due time instead of the default 50 us.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    const std::int64_t start = nowNs() + 1'000'000;
    const double periodNs = 1e9 / kOpenLoopRate;
    std::vector<ml::Real> scratch;
    for (long i = first; i < first + count; ++i) {
      auto& rec = records_[static_cast<std::size_t>(i)];
      rec.dueNs = start + static_cast<std::int64_t>(
                              periodNs * static_cast<double>(i - first));
      const auto bytes = source_.frame(i, scratch);
      const std::int64_t wait = rec.dueNs - nowNs();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      rec.sentNs = nowNs();
      client_.sendFrame(bytes);
    }
    prctl(PR_SET_TIMERSLACK, 0UL, 0, 0, 0);  // back to the default
    awaitReplies(first + count);
  }

  /// Requests [first, first + count) with kWindow outstanding; returns
  /// when the first was sent. With `traced`, the sender and reader record
  /// a span per request.
  std::int64_t closedLoop(long first, long count, bool traced) {
    traceReader_.store(traced);
    std::vector<ml::Real> scratch;
    const std::int64_t start = nowNs();
    for (long i = first; i < first + count; ++i) {
      for (;;) {
        const long got = received_.load(std::memory_order_acquire);
        if (i - got < kWindow || readerDone_.load()) break;
        received_.wait(got);
      }
      auto& rec = records_[static_cast<std::size_t>(i)];
      rec.dueNs = nowNs();
      const auto bytes = source_.frame(i, scratch);
      client_.sendFrame(bytes);
      rec.sentNs = nowNs();
      if (traced) sendLog_.add("loadgen.send", rec.dueNs, rec.sentNs, i + 1);
    }
    awaitReplies(first + count);
    traceReader_.store(false);
    return start;
  }

  /// End the connection and join the reader (idempotent).
  void finish() {
    if (!reader_.joinable()) return;
    client_.shutdownWrite();
    reader_.join();
  }

  /// Only after finish().
  const std::vector<RequestRecord>& records() const { return records_; }
  long duplicates() const { return duplicates_.load(); }
  long strayIds() const { return strayIds_.load(); }
  const SpanLog& sendLog() const { return sendLog_; }
  /// Only after finish().
  const SpanLog& recvLog() const { return recvLog_; }

 private:
  static std::vector<RequestRecord> initialRecords(const RequestSource& source,
                                                   long total) {
    std::vector<RequestRecord> recs(static_cast<std::size_t>(total));
    for (long i = 0; i < total; ++i)
      recs[static_cast<std::size_t>(i)].kind = source.kind(i);
    return recs;
  }

  static serve::NetClientOptions clientOptions() {
    serve::NetClientOptions opts;
    opts.connectTimeoutMillis = 2'000;
    opts.recvTimeoutMillis = 5'000;  // a wedged server fails the run
    return opts;
  }

  void awaitReplies(long upTo) {
    for (;;) {
      const long got = received_.load(std::memory_order_acquire);
      if (got >= upTo || readerDone_.load()) return;
      received_.wait(got);
    }
  }

  void readLoop() {
    for (;;) {
      proto::Frame f;
      const std::int64_t t0 = nowNs();
      try {
        f = client_.recvFrame();
      } catch (const std::exception&) {
        break;  // timeout, or EOF after shutdownWrite
      }
      const std::int64_t now = nowNs();
      if (f.requestId == 0 || f.requestId > records_.size()) {
        strayIds_.fetch_add(1);
        continue;
      }
      auto& rec = records_[f.requestId - 1];
      if (rec.state != State::kPending) {
        duplicates_.fetch_add(1);
        continue;
      }
      if (f.type == proto::MsgType::kError) {
        rec.state = State::kError;
      } else if (rec.kind == Kind::kPredict) {
        rec.hash = fnv1a(f.values.data(), f.values.size() * sizeof(ml::Real));
        rec.state = f.type == proto::MsgType::kReply ? State::kOk
                                                     : State::kBadReply;
      } else {
        const bool finite = std::all_of(f.values.begin(), f.values.end(),
                                        [](double v) { return std::isfinite(v); });
        rec.state = f.type == proto::MsgType::kReply &&
                            f.values.size() == 64 * 6 && finite
                        ? State::kOk
                        : State::kBadReply;
      }
      rec.replyNs = now;
      if (traceReader_.load(std::memory_order_relaxed))
        recvLog_.add("loadgen.recv", t0, now,
                     static_cast<long>(f.requestId));
      received_.fetch_add(1, std::memory_order_release);
      received_.notify_all();
    }
    readerDone_.store(true);
    received_.notify_all();
  }

  serve::NetClient client_;
  const RequestSource& source_;
  std::vector<RequestRecord> records_;
  SpanLog sendLog_{"sender"};
  SpanLog recvLog_{"reader"};
  std::atomic<long> received_{0};
  std::atomic<long> duplicates_{0};
  std::atomic<long> strayIds_{0};
  std::atomic<bool> traceReader_{false};
  std::atomic<bool> readerDone_{false};
  std::thread reader_;  // last: starts after the members it uses
};

serve::NetServerConfig serverConfig() {
  serve::NetServerConfig cfg;
  cfg.shards = 2;  // default BatchPolicy, least-loaded dispatch
  return cfg;
}

/// Set-up as a user pays it: load the weights file, publish, start the
/// server, and get the first reply on each endpoint.
double setupOnce(const std::string& modelPath,
                 const core::ArtificialScientistModel::Config& modelCfg,
                 const RequestSource& source) {
  std::vector<ml::Real> cloud, spectrum;
  source.cloud(0, cloud);
  source.spectrum(0, spectrum);
  Timer t;
  auto registry = std::make_shared<serve::ModelRegistry>();
  serve::publishCheckpoint(*registry, modelCfg, modelPath, "setup");
  serve::NetServer server(serverConfig(), registry);
  serve::NetClient client("127.0.0.1", server.port());
  client.predictSpectrum(cloud);
  client.invertSpectrum(spectrum);
  const double secs = t.seconds();
  server.stop();
  return secs;
}

std::vector<double> latenciesMs(const std::vector<RequestRecord>& recs,
                                long first, long count, int kindFilter) {
  std::vector<double> out;
  for (long i = first; i < first + count; ++i) {
    const auto& r = recs[static_cast<std::size_t>(i)];
    if (r.state != State::kOk) continue;
    if (kindFilter >= 0 && static_cast<int>(r.kind) != kindFilter) continue;
    out.push_back(1e-6 * static_cast<double>(r.replyNs - r.dueNs));
  }
  return out;
}

/// Replies per second in the closed-loop phase [first, first + count)
/// that started at `startNs`, read from the best tenth of slices of
/// kRepliesPerSlice replies in arrival order.
double closedLoopRate(const std::vector<RequestRecord>& recs, long first,
                      long count, std::int64_t startNs) {
  std::vector<std::int64_t> t;
  for (long i = first; i < first + count; ++i) {
    const auto& r = recs[static_cast<std::size_t>(i)];
    if (r.state != State::kPending) t.push_back(r.replyNs);
  }
  std::sort(t.begin(), t.end());
  if (t.empty()) return 0.0;
  const long n = static_cast<long>(t.size());
  return quantileOverWindows(n, std::max(1L, n / kRepliesPerSlice), 1 - kBestTenth,
                             [&](long b, long e) {
    const std::int64_t from = b == 0 ? startNs : t[static_cast<std::size_t>(b - 1)];
    return static_cast<double>(e - b) /
           (1e-9 * static_cast<double>(t[static_cast<std::size_t>(e - 1)] - from));
  });
}

/// Reference check: every PredictSpectrum reply must equal, bit for bit,
/// an in-process InferenceEngine run on the same input. Runs after timing
/// on up to four threads, one engine each.
long mismatchedPredictions(const std::vector<RequestRecord>& recs,
                           const RequestSource& source,
                           std::shared_ptr<const core::ArtificialScientistModel> model) {
  std::vector<long> ids;
  for (long i = 0; i < static_cast<long>(recs.size()); ++i)
    if (recs[static_cast<std::size_t>(i)].kind == Kind::kPredict &&
        recs[static_cast<std::size_t>(i)].state == State::kOk)
      ids.push_back(i);
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::atomic<long> mismatches{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      serve::InferenceEngine engine(model);
      constexpr long kBatch = 32;
      std::vector<ml::Real> clouds, one, out;
      for (std::size_t b = t * kBatch; b < ids.size(); b += threads * kBatch) {
        const long n = std::min<long>(kBatch, static_cast<long>(ids.size() - b));
        clouds.clear();
        for (long k = 0; k < n; ++k) {
          source.input(ids[b + static_cast<std::size_t>(k)], one);
          clouds.insert(clouds.end(), one.begin(), one.end());
        }
        out.resize(static_cast<std::size_t>(n * engine.spectrumDim()));
        engine.predictSpectra(clouds.data(), n, kPoints, out.data());
        for (long k = 0; k < n; ++k) {
          const auto& rec = recs[static_cast<std::size_t>(ids[b + static_cast<std::size_t>(k)])];
          const std::uint64_t h =
              fnv1a(out.data() + k * engine.spectrumDim(),
                    static_cast<std::size_t>(engine.spectrumDim()) * sizeof(ml::Real));
          if (h != rec.hash) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  return mismatches.load();
}

}  // namespace

void runServeMixed(const RunOptions& opts, Report& report) {
  const auto modelCfg = core::ArtificialScientistModel::Config::reduced();
  // The served weights: a seeded reduced model, written before timing.
  const std::string modelPath = opts.outDir + "/serve-model.bin";
  {
    Rng init(deriveSeed(opts.seed, 10));
    core::ArtificialScientistModel model(modelCfg, init);
    ml::saveParameters(modelPath, model.parameters());
  }

  const long openCount = std::lround(kOpenShare * opts.seconds * kOpenLoopRate);
  const long closedCount =
      std::lround(kClosedShare * opts.seconds * kNominalCapacity);
  const long closedRuns = opts.traced ? 2 : 1;  // traced: plain + traced
  const long total = kWarmupRequests + openCount + closedRuns * closedCount;
  const RequestSource source(opts.seed, total, modelCfg.spectrumDim);

  double setupSeconds = 0;
  if (!opts.traced) {
    std::vector<double> secs;
    for (int r = 0; r < 31; ++r)
      secs.push_back(setupOnce(modelPath, modelCfg, source));
    setupSeconds = median(secs);
  }

  auto registry = std::make_shared<serve::ModelRegistry>();
  serve::publishCheckpoint(*registry, modelCfg, modelPath, "served");
  const auto model = registry->current()->model;
  serve::NetServer server(serverConfig(), registry);
  Publisher publisher(registry);
  LoadGen gen(server.port(), source, total);

  long next = 0;
  gen.closedLoop(next, kWarmupRequests, false);
  next += kWarmupRequests;

  // Server metrics and publishes around the open-loop phase.
  const serve::ServeMetrics::Report b = server.metrics();
  const long publishesBefore = publisher.publishes();
  const long openFirst = next;
  gen.openLoop(openFirst, openCount);
  next += openCount;
  const serve::ServeMetrics::Report a = server.metrics();
  const long publishes = publisher.publishes() - publishesBefore;

  const double cpu0 = processCpuSeconds();
  const long closedFirst = next;
  const std::int64_t closedStart =
      gen.closedLoop(closedFirst, closedCount, false);
  const double closedCpu = processCpuSeconds() - cpu0;
  next += closedCount;
  std::int64_t tracedStart = 0;
  if (opts.traced) {
    tracedStart = gen.closedLoop(next, closedCount, true);
    next += closedCount;
  }
  publisher.stop();
  gen.finish();  // the reader is done with the records and span logs
  // The serving peak, before the reference check below adds its own engines.
  const double servingPeakRssMb = peakRssMb();

  // --- output checks ---------------------------------------------------------
  const auto& recs = gen.records();
  long errors = 0, unanswered = 0, badReplies = 0;
  for (const auto& r : recs) {
    if (r.state == State::kError) ++errors;
    if (r.state == State::kPending) ++unanswered;
    if (r.state == State::kBadReply) ++badReplies;
  }
  report.attempted = total;
  report.failed = errors + unanswered;
  report.check(gen.duplicates() == 0 && gen.strayIds() == 0,
               "each request id gets at most one reply (" +
                   std::to_string(gen.duplicates()) + " duplicates, " +
                   std::to_string(gen.strayIds()) + " unknown ids)");
  report.check(badReplies == 0,
               std::to_string(badReplies) +
                   " replies malformed (InvertSpectrum needs 64x6 finite "
                   "values)");
  const long mismatches = mismatchedPredictions(recs, source, model);
  report.check(mismatches == 0,
               std::to_string(mismatches) +
                   " PredictSpectrum replies differ from the in-process "
                   "InferenceEngine");
  server.stop();

  // --- timed figures and tails ------------------------------------------------
  const double throughput =
      closedLoopRate(recs, closedFirst, closedCount, closedStart);
  const auto openPercentile = [&](double q) {
    return quantileOverWindows(openCount, std::max(1L, openCount / kRequestsPerSlice),
                               kBestTenth, [&](long b, long e) {
      return percentile(latenciesMs(recs, openFirst + b, e - b, -1), q);
    });
  };
  const auto lat = latenciesMs(recs, openFirst, openCount, -1);
  const double p99 = percentile(lat, 0.99), p999 = percentile(lat, 0.999);
  report.info("serve.p50_ms", percentile(lat, 0.5));
  report.info("serve.p90_ms", percentile(lat, 0.9));
  report.info("serve.p99_ms", p99);
  report.info("serve.p99_beyond", static_cast<double>(countAbove(lat, p99)));
  report.info("serve.p999_ms", p999);
  report.info("serve.p999_beyond", static_cast<double>(countAbove(lat, p999)));
  std::vector<double> late;
  for (long i = openFirst; i < openFirst + openCount; ++i) {
    const auto& r = recs[static_cast<std::size_t>(i)];
    late.push_back(1e-6 * static_cast<double>(r.sentNs - r.dueNs));
  }
  report.info("bench.loadgen_late_ms_p99", percentile(late, 0.99));
  report.info("bench.loadgen_late_ms_max",
              late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()));
  report.info("serve.open_loop_requests", static_cast<double>(openCount));
  report.info("serve.closed_loop_requests", static_cast<double>(closedCount));
  report.info("serve.errors", static_cast<double>(errors));
  report.info("serve.unanswered", static_cast<double>(unanswered));

  if (!opts.traced) {
    report.metric("throughput", throughput, "op/s");
    report.metric("latency_ms", openPercentile(0.5), "ms");
    report.metric("p90_ms", openPercentile(0.9), "ms");
    report.metric("error_share", errorShare(report.attempted, report.failed),
                  "fraction");
    report.metric("cpu_ms_per_op",
                  1e3 * closedCpu / static_cast<double>(closedCount), "ms");
    report.metric("setup_s", setupSeconds, "s");
    report.metric("peak_rss_mb", servingPeakRssMb, "MB");
    return;
  }

  // --- traced: per-layer numbers from the open-loop phase ---------------------
  const auto delta = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(x - y);
  };
  const auto batchMean = [&](const serve::ServeMetrics::EndpointStats& x,
                             const serve::ServeMetrics::EndpointStats& y) {
    const double batches = delta(x.batches, y.batches);
    return batches > 0 ? delta(x.completed, y.completed) / batches : 0.0;
  };
  const double predictMs =
      percentile(latenciesMs(recs, openFirst, openCount, 0), 0.5);
  const double serverMs = 1e-3 * a.predict.latencyMicros.p50;
  layerMetric(report, "serve.predict_ms", predictMs);
  layerMetric(report, "serve.invert_ms",
              percentile(latenciesMs(recs, openFirst, openCount, 1), 0.5));
  layerMetric(report, "serve.server_ms", serverMs);
  layerMetric(report, "serve.wire_ms", predictMs - serverMs);
  layerMetric(report, "serve.batch_mean_predict", batchMean(a.predict, b.predict));
  layerMetric(report, "serve.batch_mean_invert", batchMean(a.invert, b.invert));
  layerMetric(report, "serve.engine_swaps", delta(a.engineSwaps, b.engineSwaps));
  layerMetric(report, "serve.publishes",
              static_cast<double>(publishes));
  layerMetric(report, "serve.shed",
              delta(a.predict.shed + a.invert.shed, b.predict.shed + b.invert.shed));
  layerMetric(report, "serve.deadline_timeouts",
              delta(a.predict.deadlineTimeouts + a.invert.deadlineTimeouts,
                    b.predict.deadlineTimeouts + b.invert.deadlineTimeouts));
  layerMetric(report, "serve.rejected",
              delta(a.predict.rejected + a.invert.rejected,
                    b.predict.rejected + b.invert.rejected));
  layerMetric(report, "bench.trace_overhead",
              closedLoopRate(recs, closedFirst + closedCount, closedCount,
                             tracedStart) /
                  throughput);
  layerMetric(report, "bench.trace_matches", mismatches == 0 ? 1.0 : 0.0);

  // Spans: each open-loop request (due -> reply, id = request id) with its
  // send as child, plus the traced closed loop's send / receive spans.
  SpanLog client("client");
  client.reserve(2 * static_cast<std::size_t>(openCount));
  for (long i = openFirst; i < openFirst + openCount; ++i) {
    const auto& r = recs[static_cast<std::size_t>(i)];
    if (r.state == State::kPending) continue;
    const auto parent = static_cast<long>(client.add(
        r.kind == Kind::kPredict ? "serve.predict" : "serve.invert", r.dueNs,
        r.replyNs, i + 1));
    client.add("loadgen.send", r.dueNs, r.sentNs, i + 1, parent);
  }
  const std::string path = opts.outDir + "/spans-" + opts.workload + ".json";
  report.check(writeSpans(path, {&client, &gen.sendLog(), &gen.recvLog()}),
               "spans written to " + path);
  std::printf("spans: %s\n", path.c_str());
}

}  // namespace perfbench
