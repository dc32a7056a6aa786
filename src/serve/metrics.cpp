#include "serve/metrics.hpp"

#include "common/error.hpp"

namespace artsci::serve {

ServeMetrics::ServeMetrics(std::size_t latencyWindow)
    : registry_(std::make_unique<obs::Registry>()), window_(latencyWindow) {
  ARTSCI_EXPECTS(latencyWindow >= 1);
  bind(predict_, "serve.predict");
  bind(invert_, "serve.invert");
  engineSwaps_ = &registry_->counter("serve.engine_swaps");
  workerRestarts_ = &registry_->counter("serve.worker_restarts");
}

void ServeMetrics::bind(PerEndpoint& p, const std::string& prefix) {
  p.submitted = &registry_->counter(prefix + ".submitted");
  p.completed = &registry_->counter(prefix + ".completed");
  p.rejected = &registry_->counter(prefix + ".rejected");
  p.shed = &registry_->counter(prefix + ".shed");
  p.deadlineTimeouts = &registry_->counter(prefix + ".deadline_timeouts");
  p.batches = &registry_->counter(prefix + ".batches");
  p.latencyUs = &registry_->histogram(prefix + ".latency_us");
}

void ServeMetrics::recordSubmitted(Endpoint e) { slot(e).submitted->add(); }

void ServeMetrics::recordRejected(Endpoint e) { slot(e).rejected->add(); }

void ServeMetrics::recordShed(Endpoint e) { slot(e).shed->add(); }

void ServeMetrics::recordDeadlineTimeout(Endpoint e) {
  slot(e).deadlineTimeouts->add();
}

void ServeMetrics::recordBatch(Endpoint e, std::size_t batchSize,
                               const std::vector<double>& latenciesMicros) {
  PerEndpoint& p = slot(e);
  p.batches->add();
  p.completed->add(batchSize);
  for (double l : latenciesMicros) p.latencyUs->observe(l);
  std::lock_guard<std::mutex> lock(mutex_);
  for (double l : latenciesMicros) {
    if (p.window.size() < window_) {
      p.window.push_back(l);
    } else {
      p.window[p.next] = l;
    }
    p.next = (p.next + 1) % window_;
  }
}

void ServeMetrics::recordEngineSwap() { engineSwaps_->add(); }

void ServeMetrics::recordWorkerRestart() { workerRestarts_->add(); }

ServeMetrics::EndpointStats ServeMetrics::summarize(
    const PerEndpoint& p) const {
  EndpointStats s;
  s.submitted = p.submitted->value();
  s.completed = p.completed->value();
  s.rejected = p.rejected->value();
  s.shed = p.shed->value();
  s.deadlineTimeouts = p.deadlineTimeouts->value();
  s.batches = p.batches->value();
  s.meanBatchSize =
      s.batches > 0
          ? static_cast<double>(s.completed) / static_cast<double>(s.batches)
          : 0.0;
  s.latencyMicros = stats::latencySummary(p.window);
  return s;
}

ServeMetrics::Report ServeMetrics::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Report r;
  r.predict = summarize(predict_);
  r.invert = summarize(invert_);
  r.engineSwaps = engineSwaps_->value();
  r.workerRestarts = workerRestarts_->value();
  return r;
}

}  // namespace artsci::serve
