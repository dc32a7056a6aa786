#include "obs/trace.hpp"

#include <chrono>
#include <fstream>
#include <ostream>

namespace artsci::obs {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

/// Nanoseconds as a microsecond decimal ("1234.056"), zero-padded so the
/// fraction keeps its magnitude.
void writeMicros(std::ostream& os, std::uint64_t ns) {
  os << ns / 1000 << '.' << static_cast<char>('0' + ns % 1000 / 100)
     << static_cast<char>('0' + ns % 100 / 10)
     << static_cast<char>('0' + ns % 10);
}

/// Escape a string for a JSON literal (names come from user code).
void writeEscaped(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}

}  // namespace

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  (void)epoch();  // pin the epoch no later than first recorder use
  return recorder;
}

std::uint64_t TraceRecorder::nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch())
          .count());
}

TraceRecorder::ThreadLog& TraceRecorder::local() {
  // One registration per thread lifetime; the shared_ptr keeps the ring
  // alive in logs_ after the thread exits so post-join flushes see it.
  thread_local ThreadLog* log = [this] {
    auto fresh = std::make_shared<ThreadLog>();
    std::lock_guard<std::mutex> lock(mutex_);
    fresh->tid = static_cast<int>(logs_.size());
    logs_.push_back(fresh);
    return fresh.get();
  }();
  return *log;
}

void TraceRecorder::record(const char* category, const char* name,
                           std::uint64_t beginNs, std::uint64_t endNs) {
  ThreadLog& log = local();
  if (log.ring.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    log.ring.resize(kRingEvents);
  }
  const std::uint64_t h = log.head.load(std::memory_order_relaxed);
  log.ring[h % log.ring.size()] = Event{category, name, beginNs, endNs};
  log.head.store(h + 1, std::memory_order_release);
}

void TraceRecorder::setThreadName(std::string name) {
  ThreadLog& log = local();
  std::lock_guard<std::mutex> lock(mutex_);
  log.name = std::move(name);
}

void TraceRecorder::setThreadRank(int rank) {
  ThreadLog& log = local();
  std::lock_guard<std::mutex> lock(mutex_);
  log.rank = rank;
}

std::size_t TraceRecorder::eventCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& log : logs_) {
    if (log->ring.empty()) continue;  // never recorded
    const std::uint64_t h = log->head.load(std::memory_order_acquire);
    total += static_cast<std::size_t>(
        h < log->ring.size() ? h : static_cast<std::uint64_t>(log->ring.size()));
  }
  return total;
}

std::size_t TraceRecorder::reservedEvents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& log : logs_) total += log->ring.size();
  return total;
}

std::uint64_t TraceRecorder::droppedCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t dropped = 0;
  for (const auto& log : logs_) {
    if (log->ring.empty()) continue;  // never recorded
    const std::uint64_t h = log->head.load(std::memory_order_acquire);
    if (h > log->ring.size()) dropped += h - log->ring.size();
  }
  return dropped;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& log : logs_) log->head.store(0, std::memory_order_release);
}

void TraceRecorder::writeJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\n\"traceEvents\": [\n";
  bool first = true;
  const auto comma = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  // Metadata: one Chrome "process" per rank, one "thread" per ring.
  for (const auto& log : logs_) {
    comma();
    os << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << log->rank
       << ", \"tid\": " << log->tid << ", \"args\": {\"name\": \"rank "
       << log->rank << "\"}}";
    comma();
    os << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " << log->rank
       << ", \"tid\": " << log->tid << ", \"args\": {\"name\": \"";
    if (log->name.empty())
      os << "thread " << log->tid;
    else
      writeEscaped(os, log->name.c_str());
    os << "\"}}";
  }
  for (const auto& log : logs_) {
    if (log->ring.empty()) continue;  // never recorded
    const std::uint64_t head = log->head.load(std::memory_order_acquire);
    const std::uint64_t cap = static_cast<std::uint64_t>(log->ring.size());
    const std::uint64_t begin = head > cap ? head - cap : 0;
    for (std::uint64_t i = begin; i < head; ++i) {
      const Event& e = log->ring[i % cap];
      comma();
      // Chrome expects microsecond doubles; emit ns / 1000 with the
      // fractional part kept so ~20ns spans stay distinguishable.
      os << "{\"ph\": \"X\", \"cat\": \"";
      writeEscaped(os, e.category);
      os << "\", \"name\": \"";
      writeEscaped(os, e.name);
      os << "\", \"ts\": ";
      writeMicros(os, e.beginNs);
      os << ", \"dur\": ";
      writeMicros(os, e.endNs - e.beginNs);
      os << ", \"pid\": " << log->rank << ", \"tid\": " << log->tid << "}";
    }
  }
  os << "\n],\n\"displayTimeUnit\": \"ms\"\n}\n";
}

bool TraceRecorder::writeJsonFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  writeJson(os);
  return os.good();
}

}  // namespace artsci::obs
