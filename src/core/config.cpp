#include "core/config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "core/error.hpp"

namespace dynmo {

namespace {
std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}
}  // namespace

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    DYNMO_CHECK(eq != std::string::npos,
                "config line " << lineno << " has no '=': " << trimmed);
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    DYNMO_CHECK(!key.empty(), "config line " << lineno << " has empty key");
    cfg.set(key, value);
  }
  return cfg;
}

Config Config::load(const std::string& path) {
  std::ifstream in(path);
  DYNMO_CHECK(in.good(), "cannot open config file " << path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return parse(oss.str());
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::contains(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string Config::get_string(const std::string& key) const {
  const auto it = values_.find(key);
  DYNMO_CHECK(it != values_.end(), "missing config key '" << key << '\'');
  return it->second;
}

std::int64_t Config::get_int(const std::string& key) const {
  const auto s = get_string(key);
  try {
    std::size_t pos = 0;
    const auto v = std::stoll(s, &pos);
    DYNMO_CHECK(pos == s.size(), "trailing junk in int '" << s << '\'');
    return v;
  } catch (const std::logic_error&) {
    throw Error("config key '" + key + "' is not an integer: " + s);
  }
}

bool Config::get_bool(const std::string& key) const {
  std::string s = get_string(key);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  throw Error("config key '" + key + "' is not a bool: " + s);
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return contains(key) ? get_string(key) : fallback;
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  return contains(key) ? get_int(key) : fallback;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  return contains(key) ? get_bool(key) : fallback;
}

std::vector<std::string> Config::unknown_keys(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      out.push_back(key);
    }
  }
  return out;
}

}  // namespace dynmo
