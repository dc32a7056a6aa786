/// \file sst.hpp
/// "nanoSST": a step-based staging engine with the contract of ADIOS2's
/// Sustainable Staging Transport [Eisenhauer et al. 2024]:
///
///  * a parallel writer group publishes time steps (BeginStep / Put /
///    EndStep); block metadata is aggregated to writer rank 0 and the
///    step is offered to the reader group;
///  * a parallel reader group consumes steps (BeginStep / Get / EndStep);
///    each reader rank decides which blocks to load (locality-aware);
///    closing the step tells the writer the data can be dropped;
///  * a bounded step queue provides back-pressure: when consumers lag,
///    EndStep blocks and the producing simulation stalls — exactly the
///    "leeway to stall the running simulation" the paper's training
///    buffer relies on;
///  * no data ever touches the filesystem: steps live in memory and move
///    between application memories (in-transit, Fig 3a).
///
/// Fault model (like the real SST, peer failure and step deadlines are
/// first-class):
///  * every blocking wait inside beginStep/endStep honours
///    `SstParams::stepTimeoutMicros` (0 = wait forever); expiry fails the
///    stream for the whole group and the expiring waiter throws
///    StreamTimeoutError — a stalled peer can stall the group for at most
///    one deadline, never deadlock it;
///  * simulated peer death (`FAULT_POINT("sst.writer.end_step")` et al.,
///    fault/fault.hpp) or an explicit `abort()` fails the stream: every
///    current and future waiter wakes and throws StreamPeerFailedError
///    carrying the reason — an incomplete step is aborted, not delivered;
///  * a writer rank that `close()`s leaves the group gracefully: a group
///    step in flight publishes once the *remaining* writers have ended
///    (the departed rank's puts stay in the step), and readers see
///    end-of-stream only after every writer departed — closing never
///    leaves a waiter behind.
///
/// Ranks are threads here; the cluster module models the wire-level
/// behaviour of the real libfabric/MPI data planes at Frontier scale.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace artsci::stream {

/// Base of the typed stream-failure taxonomy. Everything a peer failure
/// can do to a blocking SST call derives from this, so callers can catch
/// coarse (`StreamError`: degrade the pipeline) or fine (`StreamTimeoutError`
/// vs `StreamPeerFailedError`: distinguish a slow peer from a dead one).
class StreamError : public RuntimeError {
 public:
  using RuntimeError::RuntimeError;
};

/// A blocking beginStep/endStep wait exceeded SstParams::stepTimeoutMicros.
/// The stream is failed for the whole group before this is thrown.
class StreamTimeoutError : public StreamError {
 public:
  using StreamError::StreamError;
};

/// Operation on a stream whose writer group already completed close().
class StreamClosedError : public StreamError {
 public:
  using StreamError::StreamError;
};

/// The stream was aborted — a peer died (fault injection or explicit
/// SstEngine::abort) or another waiter's deadline expired. The message
/// carries the recorded failure reason.
class StreamPeerFailedError : public StreamError {
 public:
  using StreamError::StreamError;
};

/// One writer rank's contribution to one variable in one step.
struct Block {
  std::size_t writerRank = 0;
  std::vector<long> offset;  ///< within the variable's global extent
  std::vector<long> extent;
  std::vector<double> payload;  ///< row-major

  std::size_t bytes() const { return payload.size() * sizeof(double); }
};

/// A published time step: all blocks of all variables plus attributes.
struct StepData {
  long step = 0;
  std::map<std::string, std::vector<Block>> variables;
  std::map<std::string, std::vector<long>> globalExtents;
  std::map<std::string, double> numericAttributes;
  std::map<std::string, std::string> stringAttributes;

  std::size_t totalBytes() const;
  /// Gather all blocks of a variable into its dense global array.
  std::vector<double> assemble(const std::string& name) const;
};

struct SstParams {
  std::size_t writerRanks = 1;
  std::size_t readerRanks = 1;
  std::size_t queueLimit = 2;  ///< steps buffered before back-pressure
  /// Deadline for every blocking wait inside beginStep/endStep, on both
  /// sides of the stream. 0 = wait forever (the pre-fault-tolerance
  /// behaviour). On expiry the stream is failed for the whole group: the
  /// expiring call throws StreamTimeoutError, every other waiter wakes
  /// with StreamPeerFailedError, and `sst.step_timeouts` is incremented.
  std::uint64_t stepTimeoutMicros = 0;
};

/// The shared channel. Writer/Reader handles are created per rank.
class SstEngine {
 public:
  explicit SstEngine(SstParams params);

  class Writer {
   public:
    Writer(SstEngine& engine, std::size_t rank);

    void beginStep();
    /// Contribute one block; globalExtent must agree across ranks.
    void put(const std::string& variable, Block block,
             std::vector<long> globalExtent);
    /// A step attribute describes the whole step: every writer that sets
    /// it in one step must give the same value (bit for bit), or this
    /// throws ContractError and the first value stays.
    void setAttribute(const std::string& name, double value);
    void setAttribute(const std::string& name, const std::string& value);
    /// Publish when all *active* writer ranks arrived; blocks while the
    /// step queue is full (back-pressure).
    void endStep();
    /// Leave the writer group (idempotent). Safe mid-step: a group step in
    /// flight still publishes once the remaining writers have ended, and
    /// waiters blocked on this rank are woken — close never strands a
    /// peer. End-of-stream is declared once every rank closed.
    void close();

    std::size_t rank() const { return rank_; }

   private:
    SstEngine& engine_;
    std::size_t rank_;
    bool inStep_ = false;
    bool closed_ = false;  ///< this handle already left the group
    /// Step id of the group step this rank joined, captured at beginStep
    /// (NOT read from the shared assembling step inside endStep, where a
    /// late arrival could observe the next step's id and wait for the
    /// wrong publication).
    long step_ = -1;
  };

  class Reader {
   public:
    Reader(SstEngine& engine, std::size_t rank);

    /// Next step, or nullptr at end-of-stream. All reader ranks receive
    /// the same step.
    std::shared_ptr<const StepData> beginStep();
    /// Release the step; when every reader rank ended, the queue slot is
    /// freed and the writer may proceed.
    void endStep();

    /// Locality-aware default assignment: blocks whose writerRank maps to
    /// this reader (writerRank % readerRanks == rank) — "data is shared
    /// within node boundaries" (paper §IV-D). Blocks come in canonical
    /// order — ascending writerRank, then ascending offset
    /// (lexicographic) — never in the order concurrent writers put them.
    std::vector<const Block*> myBlocks(const StepData& step,
                                       const std::string& variable) const;

    std::size_t rank() const { return rank_; }

   private:
    SstEngine& engine_;
    std::size_t rank_;
    bool inStep_ = false;
  };

  Writer makeWriter(std::size_t rank) { return Writer(*this, rank); }
  Reader makeReader(std::size_t rank) { return Reader(*this, rank); }

  const SstParams& params() const { return params_; }

  /// Fail the stream: record `reason`, wake every waiter, and make every
  /// current and future beginStep/endStep/put on either side throw
  /// StreamPeerFailedError. Idempotent (the first reason wins). This is
  /// what simulated peer death and deadline expiry call internally; a
  /// pipeline supervisor can also call it to tear down a partner stream
  /// after its sibling failed.
  void abort(const std::string& reason);
  bool failed() const;
  std::string failReason() const;

  // --- statistics -------------------------------------------------------
  long stepsPublished() const;
  std::size_t bytesPublished() const;
  double writerStallSeconds() const;  ///< total back-pressure stall time
  std::size_t queueDepth() const;

 private:
  friend class Writer;
  friend class Reader;

  /// Writers still in the group (writerRanks minus the closed ones).
  /// Collective steps complete when this many ranks have ended.
  std::size_t activeWritersLocked() const {
    return params_.writerRanks - writersClosed_;
  }
  void throwIfFailedLocked(const char* where) const;
  /// cv_ wait honouring params_.stepTimeoutMicros; on expiry fails the
  /// stream, bumps `sst.step_timeouts`, and throws StreamTimeoutError.
  /// std::function is fine here: every call site is a blocking wait.
  void waitStepLocked(std::unique_lock<std::mutex>& lock, const char* what,
                      const std::function<bool()>& pred);
  void failLocked(const std::string& reason);
  /// Move the assembling step to the queue and open the next group step.
  /// `ended` is the number of ranks that completed the step (the current
  /// active-writer count at publication time).
  void publishLocked(std::size_t ended);
  /// Run a FAULT_POINT, translating injected peer death into a
  /// whole-stream abort (then rethrows). Called outside mutex_.
  void injectSiteFault(const char* site, const char* who, std::size_t rank);

  SstParams params_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;

  // Stream-failure state (peer death / timeout / explicit abort).
  bool failed_ = false;
  std::string failReason_;

  // Step under assembly by the writer group.
  std::unique_ptr<StepData> assembling_;
  std::size_t writersBegun_ = 0;
  std::size_t writersEnded_ = 0;
  /// Stragglers of the last published step that have not yet left
  /// endStep; beginStep may not open the next step until this is 0.
  std::size_t writersDraining_ = 0;
  long nextStep_ = 0;

  // Published steps awaiting consumption.
  std::deque<std::shared_ptr<StepData>> queue_;

  // Reader-group coordination.
  std::shared_ptr<StepData> current_;
  std::size_t readersBegun_ = 0;
  std::size_t readersEnded_ = 0;

  std::size_t writersClosed_ = 0;
  bool closed_ = false;

  long stepsPublished_ = 0;
  std::size_t bytesPublished_ = 0;
  double stallSeconds_ = 0;
};

}  // namespace artsci::stream
