#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

double median(const std::vector<double>& samples) { return percentile(samples, 50); }

std::size_t samples_beyond(std::size_t n, double p) {
  // The small epsilon keeps exact products (100 * 0.1 == 10) from rounding
  // down to 9.
  return static_cast<std::size_t>(std::floor(static_cast<double>(n) * (1.0 - p / 100.0) + 1e-9));
}

TailSummary summarize(const std::vector<double>& samples) {
  TailSummary s;
  s.count = samples.size();
  s.p50 = median(samples);
  s.tail = s.p50;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (samples_beyond(samples.size(), p) < 10) break;
    s.tail_p = p;
    s.tail = percentile(samples, p);
  }
  return s;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto word = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
  };
  if (!word(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return word(c) || c == '_' || c == '.' || c == '-'; });
}

namespace {
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

std::uint64_t derive_learn_seed(std::uint64_t workload_seed, int profile_index, int k) {
  const auto slot = static_cast<std::uint64_t>(profile_index) << 32 | static_cast<std::uint32_t>(k);
  return splitmix64(splitmix64(workload_seed) ^ slot);
}

}  // namespace perfbench
