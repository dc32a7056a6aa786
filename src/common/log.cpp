#include "common/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

namespace artsci::log {

namespace {

Level parseEnvLevel() {
  const char* env = std::getenv("ARTSCI_LOG");
  if (env == nullptr) return Level::kInfo;
  if (std::strcmp(env, "debug") == 0) return Level::kDebug;
  if (std::strcmp(env, "info") == 0) return Level::kInfo;
  if (std::strcmp(env, "warn") == 0) return Level::kWarn;
  if (std::strcmp(env, "error") == 0) return Level::kError;
  if (std::strcmp(env, "off") == 0) return Level::kOff;
  return Level::kInfo;
}

std::atomic<Level>& levelSlot() {
  static std::atomic<Level> l{parseEnvLevel()};
  return l;
}

std::mutex& sinkMutex() {
  static std::mutex m;
  return m;
}

/// Seconds since the first log call (monotonic clock).
double uptimeSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

const char* levelName(Level level) {
  switch (level) {
    case Level::kDebug:
      return "debug";
    case Level::kInfo:
      return "info ";
    case Level::kWarn:
      return "warn ";
    case Level::kError:
      return "error";
    default:
      return "?";
  }
}

}  // namespace

void setLevel(Level level) {
  levelSlot().store(level, std::memory_order_relaxed);
}

Level level() { return levelSlot().load(std::memory_order_relaxed); }

void write(Level lvl, const std::string& tag, const std::string& message) {
  char stamp[32];
  std::snprintf(stamp, sizeof(stamp), "%9.3fs", uptimeSeconds());
  std::lock_guard<std::mutex> lock(sinkMutex());
  std::cerr << "[" << stamp << "][" << levelName(lvl) << "][" << tag << "] "
            << message << '\n';
}

}  // namespace artsci::log
