// Small helpers shared by the benchmark's translation units: wall clocks,
// percentiles, process facts for the fingerprint, and exact result checks.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/engine/result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double SecondsSince(Clock::time_point a) { return MsBetween(a, Clock::now()) / 1000.0; }

/// Linear-interpolated percentile (q in [0, 1]) of `v`; 0 for an empty set.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Resident set of this process in MiB (/proc/self/statm, resident pages).
inline double RssMb() {
  std::ifstream f("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  f >> size >> resident;
  return static_cast<double>(resident) * 4096.0 / (1024.0 * 1024.0);
}

/// Anonymous (heap, stacks, JIT code) part of the resident set in MiB.
inline double RssAnonMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("RssAnon:", 0) == 0) return std::stod(line.substr(8)) / 1024.0;
  }
  return 0;
}

/// Threads of this process (/proc/self/task entries).
inline int ThreadCount() {
  int n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator("/proc/self/task")) ++n;
  return n;
}

inline std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// Cell-for-cell equality, rows as a multiset (group-by output order is not
/// part of a result). Floats must match exactly: the generated engines
/// promise bit-identical results to the interpreter.
inline bool SameResult(const proteus::QueryResult& got, const proteus::QueryResult& want) {
  return got.EqualsUnordered(want, /*float_tol=*/0.0);
}

}  // namespace perfbench
