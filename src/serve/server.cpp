#include "serve/server.hpp"

#include <cstring>

#include "fault/fault.hpp"
#include "obs/trace.hpp"

namespace artsci::serve {

namespace {

using Clock = std::chrono::steady_clock;

double microsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

std::future<InferenceResult> rejectedFuture(const std::string& why) {
  std::promise<InferenceResult> p;
  p.set_exception(std::make_exception_ptr(RuntimeError(why)));
  return p.get_future();
}

}  // namespace

InferenceServer::InferenceServer(ServerConfig cfg,
                                 std::shared_ptr<ModelRegistry> registry)
    : cfg_(cfg),
      registry_(std::move(registry)),
      batcher_(cfg.policy),
      metrics_(cfg.metrics ? cfg.metrics : std::make_shared<ServeMetrics>()) {
  ARTSCI_EXPECTS_MSG(registry_ != nullptr, "server needs a registry");
  worker_ = std::thread([this] { workerLoop(); });
}

InferenceServer::~InferenceServer() { shutdown(); }

std::future<InferenceResult> InferenceServer::predictSpectrum(
    std::vector<ml::Real> cloud, std::uint64_t deadlineMicros) {
  if (cloud.empty() || cloud.size() % 6 != 0)
    return rejectedFuture("PredictSpectrum input must be a non-empty "
                          "flattened [points x 6] cloud");
  return submit(Endpoint::kPredictSpectrum, std::move(cloud), deadlineMicros);
}

std::future<InferenceResult> InferenceServer::invertSpectrum(
    std::vector<ml::Real> spectrum, std::uint64_t deadlineMicros) {
  if (spectrum.empty())
    return rejectedFuture("InvertSpectrum input must be a non-empty spectrum");
  return submit(Endpoint::kInvertSpectrum, std::move(spectrum), deadlineMicros);
}

std::future<InferenceResult> InferenceServer::submit(
    Endpoint endpoint, std::vector<ml::Real> input,
    std::uint64_t deadlineMicros) {
  metrics_->recordSubmitted(endpoint);
  PendingRequest r;
  r.endpoint = endpoint;
  r.input = std::move(input);
  if (deadlineMicros > 0)
    r.deadline = Clock::now() + std::chrono::microseconds(deadlineMicros);
  std::future<InferenceResult> fut = r.promise.get_future();
  if (!batcher_.enqueue(r)) {
    // Admission control: the bounded queue is at capacity, so the newest
    // request is the one shed — the queued ones are older and closer to
    // their deadlines, re-queuing churn would only make everyone late.
    if (batcher_.stopped()) {
      metrics_->recordRejected(endpoint);
      r.promise.set_exception(
          std::make_exception_ptr(ShutdownError("server is shut down")));
    } else {
      metrics_->recordShed(endpoint);
      r.promise.set_exception(std::make_exception_ptr(ShedError(
          "request shed: inference queue is at capacity")));
    }
  }
  return fut;
}

void InferenceServer::workerLoop() {
  // Worker-local RNG for posterior draws; each incarnation of the worker
  // (one more per crash) draws its own stream.
  std::uint64_t generation = 0;
  const auto incarnationSeed = [&] {
    return cfg_.seed + 0x9e3779b9ULL * (generation + 1);
  };
  Rng rng(incarnationSeed());
  std::shared_ptr<const ModelSnapshot> bound;
  std::unique_ptr<InferenceEngine> engine;
  std::vector<PendingRequest> expired;
  for (;;) {
    expired.clear();
    std::vector<PendingRequest> batch = batcher_.nextBatch(&expired);
    // Deadline-swept requests were never batched; fail them promptly so a
    // shed/timeout response is never silently dropped.
    for (auto& r : expired) {
      metrics_->recordDeadlineTimeout(r.endpoint);
      r.promise.set_exception(std::make_exception_ptr(DeadlineError(
          "deadline expired while queued (load shed)")));
    }
    if (batch.empty()) {
      if (expired.empty()) return;  // stopped and drained: worker exits
      continue;
    }
    // The batch left the queue but is not done: keep it visible to
    // queueDepth() until right before its promises resolve, so
    // least-loaded dispatch sees this worker as busy. The decrement must
    // strictly precede promise resolution — a client that reacts to its
    // reply by sending the next request would otherwise race a stale
    // depth and get routed behind a busy shard it should have avoided.
    inFlight_.fetch_add(batch.size(), std::memory_order_relaxed);
    try {
      FAULT_POINT("serve.worker_batch");
      // One snapshot per batch: the hot-swap consistency guarantee.
      const std::shared_ptr<const ModelSnapshot> snap = registry_->current();
      if (!snap) throw RuntimeError("no model published in the registry");
      if (snap != bound) {
        engine = std::make_unique<InferenceEngine>(snap->model);
        bound = snap;
        metrics_->recordEngineSwap();
      }
      if (batch.front().endpoint == Endpoint::kPredictSpectrum)
        runPredictBatch(batch, *snap, *engine);
      else
        runInvertBatch(batch, *snap, rng);
    } catch (const fault::PeerDeathError& e) {
      // Simulated worker crash, restarted in place. The restart is counted
      // before any promise resolves, so a caller that sees the failure
      // sees the count too. The engine, bound snapshot and RNG stream are
      // what the crash loses; the next incarnation serves the queue
      // behind the batch.
      metrics_->recordWorkerRestart();
      failBatch(batch, std::make_exception_ptr(RuntimeError(
                           std::string("inference worker crashed: ") +
                           e.what())));
      engine.reset();
      bound.reset();
      ++generation;
      rng = Rng(incarnationSeed());
    } catch (...) {
      // finishBatch (which owns the success-path decrement) was not
      // reached: it is the last call of run*Batch and resolves promises
      // without throwing.
      failBatch(batch, std::current_exception());
    }
  }
}

void InferenceServer::failBatch(std::vector<PendingRequest>& batch,
                                const std::exception_ptr& err) {
  inFlight_.fetch_sub(batch.size(), std::memory_order_relaxed);
  for (auto& r : batch) {
    metrics_->recordRejected(r.endpoint);
    r.promise.set_exception(err);
  }
}

void InferenceServer::runPredictBatch(std::vector<PendingRequest>& batch,
                                      const ModelSnapshot& snap,
                                      InferenceEngine& engine) {
  TRACE_SCOPE("serve", "predict_batch");
  const auto started = Clock::now();
  const long B = static_cast<long>(batch.size());
  const long perInput = static_cast<long>(batch.front().input.size());
  const long points = perInput / 6;
  std::vector<ml::Real> clouds(static_cast<std::size_t>(B * perInput));
  for (long i = 0; i < B; ++i)
    std::memcpy(clouds.data() + i * perInput, batch[i].input.data(),
                static_cast<std::size_t>(perInput) * sizeof(ml::Real));
  const long S = engine.spectrumDim();
  std::vector<ml::Real> spectra(static_cast<std::size_t>(B * S));
  engine.predictSpectra(clouds.data(), B, points, spectra.data());
  std::vector<std::vector<ml::Real>> values(batch.size());
  for (long i = 0; i < B; ++i)
    values[i].assign(spectra.begin() + i * S, spectra.begin() + (i + 1) * S);
  finishBatch(batch, std::move(values), snap, started);
}

void InferenceServer::runInvertBatch(std::vector<PendingRequest>& batch,
                                     const ModelSnapshot& snap, Rng& rng) {
  TRACE_SCOPE("serve", "invert_batch");
  const auto started = Clock::now();
  const long B = static_cast<long>(batch.size());
  const long S = static_cast<long>(batch.front().input.size());
  ARTSCI_CHECK_MSG(S == snap.model->config().spectrumDim,
                   "InvertSpectrum input has " << S << " bins, snapshot v"
                                               << snap.version << " expects "
                                               << snap.model->config()
                                                      .spectrumDim);
  std::vector<ml::Real> flat(static_cast<std::size_t>(B * S));
  for (long i = 0; i < B; ++i)
    std::memcpy(flat.data() + i * S, batch[i].input.data(),
                static_cast<std::size_t>(S) * sizeof(ml::Real));
  const ml::Tensor spectra =
      ml::Tensor::fromVector({B, S}, std::move(flat));
  // The inverse path (INN inverse + voxel decoder) runs through the graph
  // ops — batched, so the per-op overhead amortizes across the batch.
  const ml::Tensor clouds = snap.model->invertSpectra(spectra, rng);
  const long per = clouds.numel() / B;
  std::vector<std::vector<ml::Real>> values(batch.size());
  for (long i = 0; i < B; ++i)
    values[i].assign(clouds.data().begin() + i * per,
                     clouds.data().begin() + (i + 1) * per);
  finishBatch(batch, std::move(values), snap, started);
}

void InferenceServer::finishBatch(std::vector<PendingRequest>& batch,
                                  std::vector<std::vector<ml::Real>> values,
                                  const ModelSnapshot& snap,
                                  Clock::time_point started) {
  const auto done = Clock::now();
  std::vector<double> latencies(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    latencies[i] = microsBetween(batch[i].enqueuedAt, done);
  // Metrics and the in-flight decrement before promises: a client that
  // observed its future resolve must already see this batch accounted for
  // and this worker's queueDepth() back at its queued-only value.
  inFlight_.fetch_sub(batch.size(), std::memory_order_relaxed);
  metrics_->recordBatch(batch.front().endpoint, batch.size(), latencies);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    InferenceResult res;
    res.values = std::move(values[i]);
    res.snapshotVersion = snap.version;
    res.batchSize = static_cast<long>(batch.size());
    res.queueMicros = microsBetween(batch[i].enqueuedAt, started);
    batch[i].promise.set_value(std::move(res));
  }
}

void InferenceServer::shutdown() {
  if (shutdownDone_.exchange(true)) return;
  batcher_.stop();
  worker_.join();  // the worker drains the queue to empty before it exits
}

ServeMetrics::Report InferenceServer::metrics() const {
  ServeMetrics::Report rep = metrics_->report();
  rep.queueDepth = batcher_.depth();
  return rep;
}

}  // namespace artsci::serve
