#include "bench.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>

namespace perfbench {

int TmWorkers() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(n, 2, 4));
}

uint64_t StreamSeed(uint64_t seed, uint64_t salt, int worker) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL +
               static_cast<uint64_t>(worker + 1) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  x *= 0xd6e8feb86659fd93ULL;
  x ^= x >> 32;
  return x;
}

std::string PercentileLabel(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", p);
  return buf;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

namespace {

/// 1-based nearest rank of percentile p among n samples, in exact integer
/// arithmetic (p is taken in hundredths of a percent).
uint64_t NearestRank(uint64_t n, double p) {
  const auto bp = static_cast<uint64_t>(std::llround(p * 100));
  const uint64_t rank = (n * bp + 9999) / 10000;
  return std::clamp<uint64_t>(rank, 1, n);
}

}  // namespace

double HighestSupportedPercentile(uint64_t n) {
  double best = 0;
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99}) {
    // Samples strictly beyond the nearest-rank p-th percentile.
    if (n > 0 && n - NearestRank(n, p) >= 10) best = p;
  }
  return best;
}

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  return static_cast<double>(v_[NearestRank(v_.size(), p) - 1]);
}

double Samples::Tail(double want, double* used) const {
  const double supported = HighestSupportedPercentile(count());
  const double p = supported >= want ? want : supported;
  if (used != nullptr) *used = p;
  return Percentile(p == 0 ? 50 : p);
}

}  // namespace perfbench
