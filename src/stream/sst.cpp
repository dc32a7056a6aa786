#include "stream/sst.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>

#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace artsci::stream {

std::size_t StepData::totalBytes() const {
  std::size_t total = 0;
  for (const auto& [name, blocks] : variables)
    for (const auto& b : blocks) total += b.bytes();
  return total;
}

std::vector<double> StepData::assemble(const std::string& name) const {
  auto varIt = variables.find(name);
  ARTSCI_CHECK_MSG(varIt != variables.end(),
                   "unknown stream variable '" << name << "'");
  auto extIt = globalExtents.find(name);
  ARTSCI_CHECK(extIt != globalExtents.end());
  const auto& global = extIt->second;
  long total = 1;
  for (long d : global) total *= d;
  std::vector<double> out(static_cast<std::size_t>(total), 0.0);

  // Strides of the global extent.
  std::vector<long> strides(global.size(), 1);
  for (int d = static_cast<int>(global.size()) - 2; d >= 0; --d)
    strides[static_cast<std::size_t>(d)] =
        strides[static_cast<std::size_t>(d) + 1] *
        global[static_cast<std::size_t>(d) + 1];

  for (const auto& b : varIt->second) {
    ARTSCI_CHECK(b.offset.size() == global.size());
    // Copy the block row by row (innermost dimension contiguous).
    const long inner = b.extent.empty() ? 1 : b.extent.back();
    long rows = 1;
    for (std::size_t d = 0; d + 1 < b.extent.size(); ++d)
      rows *= b.extent[d];
    for (long r = 0; r < rows; ++r) {
      // Decompose row index into the leading block coordinates.
      long rem = r;
      long dstIdx = 0;
      for (std::size_t d = 0; d + 1 < b.extent.size(); ++d) {
        long blockStride = 1;
        for (std::size_t dd = d + 1; dd + 1 < b.extent.size(); ++dd)
          blockStride *= b.extent[dd];
        const long coord = rem / blockStride;
        rem %= blockStride;
        dstIdx += (coord + b.offset[d]) * strides[d];
      }
      dstIdx += b.offset.back();
      std::memcpy(out.data() + dstIdx,
                  b.payload.data() + r * inner,
                  static_cast<std::size_t>(inner) * sizeof(double));
    }
  }
  return out;
}

SstEngine::SstEngine(SstParams params) : params_(params) {
  ARTSCI_EXPECTS(params.writerRanks >= 1);
  ARTSCI_EXPECTS(params.readerRanks >= 1);
  ARTSCI_EXPECTS(params.queueLimit >= 1);
}

// --- failure machinery ------------------------------------------------------

void SstEngine::failLocked(const std::string& reason) {
  if (failed_) return;  // first failure wins; later ones add no information
  failed_ = true;
  failReason_ = reason;
}

void SstEngine::abort(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    failLocked(reason);
  }
  cv_.notify_all();
}

bool SstEngine::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

std::string SstEngine::failReason() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failReason_;
}

void SstEngine::throwIfFailedLocked(const char* where) const {
  if (failed_)
    throw StreamPeerFailedError(std::string("nanoSST ") + where +
                                ": stream failed: " + failReason_);
}

void SstEngine::waitStepLocked(std::unique_lock<std::mutex>& lock,
                               const char* what,
                               const std::function<bool()>& pred) {
  if (params_.stepTimeoutMicros == 0) {
    cv_.wait(lock, pred);
    return;
  }
  if (cv_.wait_for(lock, std::chrono::microseconds(params_.stepTimeoutMicros),
                   pred))
    return;
  // Deadline expired: this peer gives up on the step, which makes the
  // whole stream unusable (a collective step cannot complete without it).
  // Fail the stream so every other waiter wakes with a peer-failure error
  // instead of blocking forever on a group that will never re-form.
  obs::Registry::global().counter("sst.step_timeouts").add();
  const std::string what_s(what);
  failLocked(what_s + " deadline of " +
             std::to_string(params_.stepTimeoutMicros) + " us expired");
  cv_.notify_all();
  throw StreamTimeoutError("nanoSST " + what_s + ": no progress within " +
                           std::to_string(params_.stepTimeoutMicros) +
                           " us step deadline");
}

void SstEngine::injectSiteFault(const char* site, const char* who,
                                std::size_t rank) {
  if (!fault::Plan::global().armed()) return;
  try {
    fault::Plan::global().onSite(site);
  } catch (const fault::PeerDeathError& e) {
    // Peer death is a *stream* failure, not a local one: fail the group so
    // every blocked peer wakes, then let the death propagate to the caller.
    abort(std::string(who) + " rank " + std::to_string(rank) +
          " died: " + e.what());
    throw;
  }
}

void SstEngine::publishLocked(std::size_t ended) {
  // Resolved once; the registry owns the metrics for the process lifetime.
  static obs::Counter& bytes =
      obs::Registry::global().counter("stream.bytes_published");
  static obs::Counter& steps =
      obs::Registry::global().counter("stream.steps_published");
  static obs::Gauge& depth =
      obs::Registry::global().gauge("stream.queue_depth");
  bytesPublished_ += assembling_->totalBytes();
  bytes.add(assembling_->totalBytes());
  steps.add();
  queue_.push_back(std::move(assembling_));
  depth.set(static_cast<double>(queue_.size()));
  assembling_.reset();
  ++stepsPublished_;
  ++nextStep_;
  writersBegun_ = 0;
  writersEnded_ = 0;
  // The other `ended - 1` ranks are still inside endStep; the next step
  // must not start assembling until all of them left (gates beginStep).
  writersDraining_ = ended - 1;
  cv_.notify_all();
}

long SstEngine::stepsPublished() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stepsPublished_;
}

std::size_t SstEngine::bytesPublished() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytesPublished_;
}

double SstEngine::writerStallSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stallSeconds_;
}

std::size_t SstEngine::queueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

// --- Writer ---------------------------------------------------------------

SstEngine::Writer::Writer(SstEngine& engine, std::size_t rank)
    : engine_(engine), rank_(rank) {
  ARTSCI_EXPECTS(rank < engine.params_.writerRanks);
}

void SstEngine::Writer::beginStep() {
  TRACE_SCOPE("stream", "writer_begin_step");
  ARTSCI_CHECK_MSG(!inStep_, "writer rank already in a step");
  ARTSCI_CHECK_MSG(!closed_, "beginStep on closed writer");
  engine_.injectSiteFault("sst.writer.begin_step", "writer", rank_);
  std::unique_lock<std::mutex> lock(engine_.mutex_);
  // A publication is complete only once every straggler of the previous
  // group has left endStep (writersDraining_ reaches 0, see endStep).
  // Opening the next assembling step before that would let a straggler
  // observe next-step state from inside the previous step's endStep —
  // the interleaving behind the step-id race this engine had.
  engine_.waitStepLocked(lock, "writer beginStep", [this] {
    return engine_.failed_ || engine_.writersDraining_ == 0;
  });
  engine_.throwIfFailedLocked("writer beginStep");
  if (!engine_.assembling_) {
    engine_.assembling_ = std::make_unique<StepData>();
    engine_.assembling_->step = engine_.nextStep_;
  }
  ++engine_.writersBegun_;
  // Capture the group's step id NOW: endStep waits for *this* id to
  // publish however late it runs. The pre-fix code captured inside
  // endStep from the shared assembling_ pointer — a late endStep could
  // read the *next* step's id there and block until the wrong
  // publication.
  step_ = engine_.assembling_->step;
  inStep_ = true;
}

void SstEngine::Writer::put(const std::string& variable, Block block,
                            std::vector<long> globalExtent) {
  ARTSCI_CHECK_MSG(inStep_, "put outside beginStep/endStep");
  // StepData::assemble copies every block row to its offset unchecked, so
  // a block must lie inside its variable and fill its extent exactly.
  ARTSCI_EXPECTS_MSG(!globalExtent.empty(),
                     "stream variable '" << variable << "' has rank 0");
  ARTSCI_EXPECTS(block.offset.size() == globalExtent.size());
  ARTSCI_EXPECTS(block.extent.size() == globalExtent.size());
  long globalValues = 1, blockValues = 1;
  for (std::size_t d = 0; d < globalExtent.size(); ++d) {
    const long offset = block.offset[d], extent = block.extent[d];
    ARTSCI_EXPECTS_MSG(offset >= 0 && extent >= 0 &&
                           offset <= globalExtent[d] &&
                           extent <= globalExtent[d] - offset,
                       "block [" << offset << ", +" << extent << ") of '"
                                 << variable << "' does not fit axis " << d
                                 << " of extent " << globalExtent[d]);
    ARTSCI_EXPECTS_MSG(!__builtin_mul_overflow(globalValues, globalExtent[d],
                                               &globalValues),
                       "global extent of '" << variable << "' overflows");
    blockValues *= extent;  // <= globalValues: cannot overflow
  }
  ARTSCI_EXPECTS_MSG(
      block.payload.size() == static_cast<std::size_t>(blockValues),
      "block of '" << variable << "' carries " << block.payload.size()
                   << " values, its extent holds " << blockValues);
  block.writerRank = rank_;
  std::lock_guard<std::mutex> lock(engine_.mutex_);
  engine_.throwIfFailedLocked("writer put");
  auto& step = *engine_.assembling_;
  auto [it, inserted] = step.globalExtents.emplace(variable, globalExtent);
  if (!inserted) {
    ARTSCI_CHECK_MSG(it->second == globalExtent,
                     "global extent mismatch for '" << variable << "'");
  }
  step.variables[variable].push_back(std::move(block));
}

void SstEngine::Writer::setAttribute(const std::string& name, double value) {
  ARTSCI_CHECK_MSG(inStep_, "setAttribute outside a step");
  std::lock_guard<std::mutex> lock(engine_.mutex_);
  engine_.throwIfFailedLocked("writer setAttribute");
  const auto [it, inserted] =
      engine_.assembling_->numericAttributes.emplace(name, value);
  ARTSCI_CHECK_MSG(inserted || std::bit_cast<std::uint64_t>(it->second) ==
                                   std::bit_cast<std::uint64_t>(value),
                   "writers disagree on attribute '"
                       << name << "' of step " << step_ << ": " << it->second
                       << " vs " << value);
}

void SstEngine::Writer::setAttribute(const std::string& name,
                                     const std::string& value) {
  ARTSCI_CHECK_MSG(inStep_, "setAttribute outside a step");
  std::lock_guard<std::mutex> lock(engine_.mutex_);
  engine_.throwIfFailedLocked("writer setAttribute");
  const auto [it, inserted] =
      engine_.assembling_->stringAttributes.emplace(name, value);
  ARTSCI_CHECK_MSG(inserted || it->second == value,
                   "writers disagree on attribute '"
                       << name << "' of step " << step_ << ": '" << it->second
                       << "' vs '" << value << "'");
}

void SstEngine::Writer::endStep() {
  TRACE_SCOPE("stream", "writer_end_step");
  ARTSCI_CHECK_MSG(inStep_, "endStep without beginStep");
  engine_.injectSiteFault("sst.writer.end_step", "writer", rank_);
  Timer stall;
  std::unique_lock<std::mutex> lock(engine_.mutex_);
  ++engine_.writersEnded_;
  engine_.cv_.notify_all();
  // Collective EndStep. Every ender waits on one predicate: the step got
  // published (by a peer, identified via the id captured at beginStep so
  // the wait is correct however late it runs), or this ender can publish
  // it — all *active* writers ended and a queue slot is free
  // (back-pressure on the whole group). "Active" shrinks when a rank
  // close()s mid-step, so a departure can complete the step: the waiters
  // are re-woken by close() and the first one through publishes.
  try {
    engine_.waitStepLocked(lock, "writer endStep", [this] {
      return engine_.failed_ || engine_.nextStep_ > step_ ||
             (engine_.writersEnded_ == engine_.activeWritersLocked() &&
              engine_.queue_.size() < engine_.params_.queueLimit);
    });
    engine_.throwIfFailedLocked("writer endStep");
  } catch (...) {
    // The step died with the stream. Leave the handle out-of-step so the
    // caller's next beginStep surfaces the typed stream failure instead
    // of a misuse ContractError.
    inStep_ = false;
    throw;
  }
  if (engine_.nextStep_ == step_) {
    engine_.publishLocked(engine_.writersEnded_);
  } else {
    --engine_.writersDraining_;
    if (engine_.writersDraining_ == 0) engine_.cv_.notify_all();
  }
  engine_.stallSeconds_ += stall.seconds();
  inStep_ = false;
}

void SstEngine::Writer::close() {
  if (closed_) return;
  closed_ = true;
  std::lock_guard<std::mutex> lock(engine_.mutex_);
  ++engine_.writersClosed_;
  if (inStep_) {
    // Mid-step departure. The step cannot have published yet — publication
    // needs writersEnded_ == activeWriters and this rank, still active and
    // not ended, kept that false. Leave the assembling group; the puts
    // this rank already made stay in the step.
    --engine_.writersBegun_;
    inStep_ = false;
  }
  if (engine_.writersClosed_ == engine_.params_.writerRanks) {
    engine_.closed_ = true;
    // A partially assembled step with no live participant can never
    // publish — drop it rather than leave readers a step that never
    // completes. (With participants still inside endStep at least one
    // rank has not closed, so we cannot get here.)
    if (engine_.assembling_ && engine_.writersEnded_ == 0)
      engine_.assembling_.reset();
  }
  // A departure can complete the current step (remaining enders' predicate
  // flips) or declare end-of-stream — wake everyone either way.
  engine_.cv_.notify_all();
}

// --- Reader ---------------------------------------------------------------

SstEngine::Reader::Reader(SstEngine& engine, std::size_t rank)
    : engine_(engine), rank_(rank) {
  ARTSCI_EXPECTS(rank < engine.params_.readerRanks);
}

std::shared_ptr<const StepData> SstEngine::Reader::beginStep() {
  TRACE_SCOPE("stream", "reader_begin_step");
  ARTSCI_CHECK_MSG(!inStep_, "reader rank already in a step");
  engine_.injectSiteFault("sst.reader.begin_step", "reader", rank_);
  std::unique_lock<std::mutex> lock(engine_.mutex_);
  engine_.waitStepLocked(lock, "reader beginStep", [this] {
    // Wait for a fresh step, an in-flight group step, end-of-stream, or a
    // failed stream.
    if (engine_.failed_) return true;
    if (engine_.current_ &&
        engine_.readersBegun_ < engine_.params_.readerRanks)
      return true;
    if (!engine_.current_ && !engine_.queue_.empty()) return true;
    return engine_.closed_ && engine_.queue_.empty() && !engine_.current_;
  });
  // Fail fast even when steps are still queued: a failed stream's queued
  // steps precede an incomplete one, and consuming them would hand the
  // application a silently truncated run instead of a typed error.
  engine_.throwIfFailedLocked("reader beginStep");
  if (!engine_.current_) {
    if (engine_.queue_.empty()) return nullptr;  // end-of-stream
    engine_.current_ = engine_.queue_.front();
    engine_.readersBegun_ = 0;
    engine_.readersEnded_ = 0;
    engine_.cv_.notify_all();
  }
  ++engine_.readersBegun_;
  inStep_ = true;
  return engine_.current_;
}

void SstEngine::Reader::endStep() {
  TRACE_SCOPE("stream", "reader_end_step");
  ARTSCI_CHECK_MSG(inStep_, "reader endStep without beginStep");
  engine_.injectSiteFault("sst.reader.end_step", "reader", rank_);
  std::unique_lock<std::mutex> lock(engine_.mutex_);
  try {
    engine_.throwIfFailedLocked("reader endStep");
    ++engine_.readersEnded_;
    if (engine_.readersEnded_ == engine_.params_.readerRanks) {
      // Releasing the step frees the writer-side buffer (queue slot).
      engine_.queue_.pop_front();
      static obs::Gauge& depth =
          obs::Registry::global().gauge("stream.queue_depth");
      depth.set(static_cast<double>(engine_.queue_.size()));
      engine_.current_.reset();
      engine_.cv_.notify_all();
    } else {
      const std::shared_ptr<StepData> mine = engine_.current_;
      engine_.waitStepLocked(lock, "reader endStep", [this, &mine] {
        return engine_.failed_ || engine_.current_ != mine;
      });
      engine_.throwIfFailedLocked("reader endStep");
    }
  } catch (...) {
    inStep_ = false;  // as in Writer::endStep: fail typed, not ContractError
    throw;
  }
  inStep_ = false;
}

std::vector<const Block*> SstEngine::Reader::myBlocks(
    const StepData& step, const std::string& variable) const {
  std::vector<const Block*> out;
  auto it = step.variables.find(variable);
  if (it == step.variables.end()) return out;
  for (const auto& b : it->second) {
    if (b.writerRank % engine_.params_.readerRanks == rank_)
      out.push_back(&b);
  }
  // Writers put concurrently, so arrival order is a scheduling accident;
  // hand blocks out in the canonical (writerRank, offset) order.
  std::stable_sort(out.begin(), out.end(),
                   [](const Block* a, const Block* b) {
                     if (a->writerRank != b->writerRank)
                       return a->writerRank < b->writerRank;
                     return a->offset < b->offset;
                   });
  return out;
}

}  // namespace artsci::stream
