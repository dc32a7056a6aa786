/// \file log.hpp
/// Minimal thread-safe logger. Intentionally tiny: the workflow components
/// (producer, consumer, trainer) tag their messages so interleaved output
/// from concurrent pipeline stages stays readable.
///
/// Every line carries a monotonic timestamp (seconds since the first log
/// call) so concurrent producer/trainer/serve output can be ordered by
/// eye. The initial threshold honors the ARTSCI_LOG environment variable
/// (debug|info|warn|error|off; default info).
#pragma once

#include <mutex>
#include <sstream>
#include <string>

namespace artsci::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold; messages below it are dropped. The first query
/// initializes it from ARTSCI_LOG (unset/unknown value -> info).
void setLevel(Level level);
Level level();

/// Core sink: writes "[  12.345s][level][tag] message" to stderr under a
/// mutex.
void write(Level level, const std::string& tag, const std::string& message);

namespace detail {
template <typename... Args>
std::string format(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

template <typename... Args>
void debug(const std::string& tag, Args&&... args) {
  if (level() <= Level::kDebug)
    write(Level::kDebug, tag, detail::format(std::forward<Args>(args)...));
}
template <typename... Args>
void info(const std::string& tag, Args&&... args) {
  if (level() <= Level::kInfo)
    write(Level::kInfo, tag, detail::format(std::forward<Args>(args)...));
}
template <typename... Args>
void warn(const std::string& tag, Args&&... args) {
  if (level() <= Level::kWarn)
    write(Level::kWarn, tag, detail::format(std::forward<Args>(args)...));
}
template <typename... Args>
void error(const std::string& tag, Args&&... args) {
  if (level() <= Level::kError)
    write(Level::kError, tag, detail::format(std::forward<Args>(args)...));
}

}  // namespace artsci::log
