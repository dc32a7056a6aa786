#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>

namespace perfbench {

std::int64_t nowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

std::size_t SpanLog::open(const char* name, long id) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  spans_.back().startNs = nowNs();
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  spans_[index].endNs = nowNs();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::size_t SpanLog::add(const char* name, std::int64_t startNs,
                         std::int64_t endNs, long id, long parent) {
  spans_.push_back(Span{name, startNs, endNs, parent, id});
  return spans_.size() - 1;
}

double SpanLog::totalSeconds(const char* name) const {
  double total = 0;
  for (const auto& s : spans_)
    if (std::strcmp(s.name, name) == 0) total += s.seconds();
  return total;
}

double SpanLog::selfSeconds(const char* name) const {
  double total = totalSeconds(name);
  for (const auto& s : spans_)
    if (s.parent >= 0 &&
        std::strcmp(spans_[static_cast<std::size_t>(s.parent)].name, name) == 0)
      total -= s.seconds();
  return total;
}

double SpanLog::coveredSeconds(std::int64_t fromNs, std::int64_t toNs) const {
  // Top-level spans of one thread never overlap, so clipped durations add.
  std::int64_t covered = 0;
  for (const auto& s : spans_) {
    if (s.parent >= 0) continue;
    const std::int64_t a = std::max(s.startNs, fromNs);
    const std::int64_t b = std::min(s.endNs, toNs);
    if (b > a) covered += b - a;
  }
  return 1e-9 * static_cast<double>(covered);
}

bool writeSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"id\"],"
        "\n \"threads\": [";
  for (std::size_t t = 0; t < logs.size(); ++t) {
    os << (t ? ",\n" : "\n") << "  {\"thread\": \"" << logs[t]->thread()
       << "\", \"spans\": [";
    const auto& spans = logs[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      os << (i ? ",\n" : "\n") << "   [\"" << s.name << "\", " << s.startNs
         << ", " << s.endNs << ", " << s.parent << ", " << s.id << "]";
    }
    os << "]}";
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
