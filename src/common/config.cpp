#include "common/config.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"

namespace artsci {

Config Config::fromArgs(int argc, const char* const* argv,
                        const std::vector<std::string>& keys) {
  const auto accepted = [&] {
    std::string list;
    for (const auto& k : keys) list += (list.empty() ? "" : ", ") + k;
    return list;
  };
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto eq = tok.find('=');
    const std::string key = tok.substr(0, eq);
    ARTSCI_CHECK_MSG(
        eq != std::string::npos &&
            std::find(keys.begin(), keys.end(), key) != keys.end(),
        "unknown argument '" << tok << "'; accepted keys (key=value): "
                             << accepted());
    cfg.values_[key] = tok.substr(eq + 1);
  }
  return cfg;
}

std::string Config::getString(const std::string& key,
                              const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long Config::getInt(const std::string& key, long fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  ARTSCI_CHECK_MSG(end != it->second.c_str() && *end == '\0',
                   "config key '" << key << "' is not an integer: '"
                                  << it->second << "'");
  return v;
}

double Config::getDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  ARTSCI_CHECK_MSG(end != it->second.c_str() && *end == '\0',
                   "config key '" << key << "' is not a number: '"
                                  << it->second << "'");
  return v;
}

bool Config::getBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(), ::tolower);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  ARTSCI_CHECK_MSG(false, "config key '" << key << "' is not a bool: '"
                                         << it->second << "'");
  return fallback;
}

}  // namespace artsci
