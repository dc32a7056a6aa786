/// \file config.hpp
/// Tiny typed key-value configuration with "key=value" CLI parsing, used by
/// the examples and bench binaries so runs are parameterizable without
/// recompiling (grid sizes, ranks, n_rep, ...).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace artsci {

class Config {
 public:
  /// Parse "key=value" tokens. `keys` are the keys the binary reads: an
  /// unknown key, or a token without '=', throws ContractError naming the
  /// token and listing the accepted keys.
  static Config fromArgs(int argc, const char* const* argv,
                         const std::vector<std::string>& keys);

  std::string getString(const std::string& key,
                        const std::string& fallback) const;
  long getInt(const std::string& key, long fallback) const;
  double getDouble(const std::string& key, double fallback) const;
  bool getBool(const std::string& key, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace artsci
