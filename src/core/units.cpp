#include "core/units.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <span>

namespace dynmo {

namespace {
std::string format_scaled(double value, double base,
                          std::span<const char* const> suffixes) {
  std::size_t i = 0;
  double v = value;
  while (std::abs(v) >= base && i + 1 < suffixes.size()) {
    v /= base;
    ++i;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g %s", v, suffixes[i]);
  return buf;
}
}  // namespace

std::string format_bytes(double bytes) {
  static constexpr std::array<const char*, 5> kSuffix = {"B", "KiB", "MiB",
                                                         "GiB", "TiB"};
  return format_scaled(bytes, 1024.0, kSuffix);
}

std::string format_seconds(double seconds) {
  char buf[64];
  if (seconds < 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.3g ns", seconds * 1e9);
  } else if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.3g us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3g ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3g s", seconds);
  }
  return buf;
}

}  // namespace dynmo
