/// \file trace.hpp
/// Span tracing for the hot paths: `TRACE_SCOPE("pic", "tile_pass")`
/// records one RAII-timed span into the calling thread's private ring
/// buffer — no locks, no allocation on the record path once the thread's
/// first span has allocated its ring — and
/// `TraceRecorder::writeJson` flushes everything as Chrome `trace_event`
/// JSON that chrome://tracing and https://ui.perfetto.dev load directly.
///
/// Cost model (perfbench's traced mode reports `bench.trace_overhead`,
/// the traced/untraced throughput ratio). Spans are always compiled in;
/// the recorder is switched on at runtime:
///  * disabled (the default): one relaxed atomic load and a predictable
///    branch per scope (~1 ns);
///  * enabled: two steady_clock reads plus one ring-buffer store per
///    scope (~tens of ns) — cheap enough to leave on around phases, far
///    too hot for per-particle loops (instrument the loop, not the body).
///
/// Attribution: every span belongs to the thread that recorded it. A
/// thread may label itself (`setThreadName`) and claim a rank
/// (`setThreadRank`); the JSON maps rank -> Chrome "process" and thread
/// -> Chrome "thread", so a 4-rank x 8-thread run renders as four
/// process groups with nested per-thread span stacks.
///
/// Thread safety: recording is wait-free per thread (single-writer ring,
/// relaxed atomics). `writeJson`/`clear`/`eventCount` walk other threads'
/// buffers and must run at a quiescent point (instrumented regions
/// joined), the same discipline the step-level flush sites follow.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace artsci::obs {

/// Global singleton owning every thread's span ring buffer.
class TraceRecorder {
 public:
  /// One completed span. `category`/`name` must be string literals (or
  /// otherwise outlive the recorder) — the ring stores the pointers.
  struct Event {
    const char* category = nullptr;
    const char* name = nullptr;
    std::uint64_t beginNs = 0;  ///< since the recorder's epoch
    std::uint64_t endNs = 0;
  };

  static TraceRecorder& instance();

  /// Runtime switch (default off). Scopes opened while disabled record
  /// nothing, even if tracing is enabled before they close.
  void setEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Ring capacity (events) of every thread; when a ring is full the
  /// oldest events are overwritten and counted dropped. A thread's ring is
  /// allocated at its first recorded span, so threads that only label
  /// themselves (`setThreadName`/`setThreadRank`) or record while tracing
  /// is off reserve none.
  static constexpr std::size_t kRingEvents = std::size_t{1} << 15;

  /// Record one completed span into the calling thread's ring.
  void record(const char* category, const char* name, std::uint64_t beginNs,
              std::uint64_t endNs);

  /// Monotonic nanoseconds since the recorder's epoch.
  static std::uint64_t nowNs();

  /// Label the calling thread in the flushed trace (e.g. "trainer rank 2").
  void setThreadName(std::string name);
  /// Claim a rank for the calling thread: the flush maps it to a Chrome
  /// "process", grouping all of the rank's threads. Default rank is 0.
  void setThreadRank(int rank);

  /// Total spans currently buffered across all threads (quiescent only).
  std::size_t eventCount() const;
  /// Ring slots allocated across all threads (quiescent only).
  std::size_t reservedEvents() const;
  /// Spans overwritten because a ring wrapped (quiescent only).
  std::uint64_t droppedCount() const;
  /// Drop all buffered spans; rings and thread labels survive.
  void clear();

  /// Chrome trace_event JSON ("traceEvents" array of "X" complete events
  /// plus process/thread metadata). Quiescent only.
  void writeJson(std::ostream& os) const;
  /// writeJson to a file; returns false if the file cannot be opened.
  bool writeJsonFile(const std::string& path) const;

 private:
  struct ThreadLog {
    std::vector<Event> ring;  ///< empty until the first recorded span
    /// Monotone count of spans ever recorded; slot = head % ring.size().
    /// Written only by the owning thread; release-stored so a quiescent
    /// reader that joined the thread sees completed events.
    std::atomic<std::uint64_t> head{0};
    int tid = 0;
    int rank = 0;
    std::string name;
  };

  TraceRecorder() = default;
  ThreadLog& local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  ///< guards logs_ and each ring's allocation
  std::vector<std::shared_ptr<ThreadLog>> logs_;
};

/// RAII span: stamps begin at construction, records at destruction. The
/// enabled check is taken once, at entry.
class TraceScope {
 public:
  TraceScope(const char* category, const char* name)
      : active_(TraceRecorder::instance().enabled()) {
    if (active_) {
      category_ = category;
      name_ = name;
      beginNs_ = TraceRecorder::nowNs();
    }
  }
  ~TraceScope() {
    if (active_)
      TraceRecorder::instance().record(category_, name_, beginNs_,
                                       TraceRecorder::nowNs());
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool active_;
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t beginNs_ = 0;
};

}  // namespace artsci::obs

#define ARTSCI_TRACE_CONCAT2(a, b) a##b
#define ARTSCI_TRACE_CONCAT(a, b) ARTSCI_TRACE_CONCAT2(a, b)
/// Time the enclosing scope as one span. category/name: string literals.
#define TRACE_SCOPE(category, name)                                  \
  ::artsci::obs::TraceScope ARTSCI_TRACE_CONCAT(artsciTraceScope_,   \
                                                __COUNTER__)(category, name)
