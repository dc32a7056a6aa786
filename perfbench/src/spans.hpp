/// \file spans.hpp
/// The benchmark's own tracing: spans the benchmark records around its
/// calls into each layer's public functions (nothing inside the program is
/// instrumented). A span has a name, start and end, the span that caused
/// it (its parent on the same thread), and a shared id — the streamed-step
/// index or the request id — that ties spans of one unit of work together
/// across threads. Spans stay in memory and are written out when the run
/// ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t nowNs();

struct Span {
  const char* name = nullptr;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  long parent = -1;  ///< index in the same log; -1 = top level
  long id = -1;      ///< shared id (step index / request id); -1 = none
  double seconds() const { return 1e-9 * static_cast<double>(endNs - startNs); }
};

/// The spans of one thread. Single writer; nesting follows open/close.
class SpanLog {
 public:
  explicit SpanLog(std::string thread) : thread_(std::move(thread)) {}

  std::size_t open(const char* name, long id = -1);
  void close(std::size_t index);
  /// Append an already-timed span (timestamps taken elsewhere).
  std::size_t add(const char* name, std::int64_t startNs, std::int64_t endNs,
                  long id = -1, long parent = -1);
  void reserve(std::size_t n) { spans_.reserve(n); }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& thread() const { return thread_; }

  /// Sum of the durations of the spans called `name`.
  double totalSeconds(const char* name) const;
  /// Same, minus the time their child spans cover (self time).
  double selfSeconds(const char* name) const;
  /// Time inside [fromNs, toNs] that top-level spans cover.
  double coveredSeconds(std::int64_t fromNs, std::int64_t toNs) const;

 private:
  std::string thread_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, long id = -1)
      : log_(log), index_(log.open(name, id)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::size_t index_;
};

/// Write every span of `logs` as JSON: per thread, one row per span of
/// [name, start_ns, end_ns, parent (index in that thread's rows or -1), id].
bool writeSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
