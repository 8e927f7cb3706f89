// Lightweight key=value configuration store.
//
// Lets examples and downstream users drive sessions from config files
// (one `key = value` per line, '#' comments) without adding a dependency.
// Typed getters validate on access; unknown keys are detectable so typos
// fail loudly.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dynmo {

class Config {
 public:
  Config() = default;

  /// Parse "key = value" lines; '#' starts a comment; blank lines ignored.
  static Config parse(const std::string& text);
  /// Load from a file; throws dynmo::Error if unreadable.
  static Config load(const std::string& path);

  void set(const std::string& key, const std::string& value);

  bool contains(const std::string& key) const;
  /// Typed getters: throw dynmo::Error on missing key or bad format.
  std::string get_string(const std::string& key) const;
  std::int64_t get_int(const std::string& key) const;
  bool get_bool(const std::string& key) const;
  /// With-default variants never throw on missing keys.
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Keys present in the config but not in `known` (typo detection).
  std::vector<std::string> unknown_keys(
      const std::vector<std::string>& known) const;

  std::size_t size() const { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace dynmo
