// Strongly-suggestive unit helpers.  DynMo deals in seconds, bytes, and
// FLOPs throughout; these constexpr helpers keep magic constants readable
// (e.g. `80 * GiB`, `989 * TFLOPS`).
#pragma once

#include <cstdint>
#include <string>

namespace dynmo {

inline constexpr double KiB = 1024.0;
inline constexpr double MiB = 1024.0 * KiB;
inline constexpr double GiB = 1024.0 * MiB;

inline constexpr double KB = 1e3;
inline constexpr double MB = 1e6;
inline constexpr double GB = 1e9;

inline constexpr double GFLOPS = 1e9;
inline constexpr double TFLOPS = 1e12;

inline constexpr double us = 1e-6;
inline constexpr double ms = 1e-3;

/// Pretty-print a byte count ("1.5 GiB").
std::string format_bytes(double bytes);
/// Pretty-print a duration in seconds ("3.2 ms").
std::string format_seconds(double seconds);

}  // namespace dynmo
