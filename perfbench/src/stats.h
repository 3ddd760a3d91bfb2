// Sample statistics and naming rules shared by the benchmark and its
// self-tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (p in [0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);
double median(const std::vector<double>& samples);

/// A timing summary: the median plus the highest percentile on the ladder
/// p50/p90/p99/p99.9 that still has at least ten samples beyond it. With
/// fewer than 20 samples no percentile qualifies and only the median is
/// meaningful, so `tail_p` stays empty.
struct TailSummary {
  std::size_t count = 0;
  double p50 = 0;
  std::optional<double> tail_p;  // e.g. 90 for p90
  double tail = 0;               // value at tail_p (== p50 when none qualifies)
};
TailSummary summarize(const std::vector<double>& samples);
/// Number of samples strictly above the p-th percentile's rank in `n` samples.
std::size_t samples_beyond(std::size_t n, double p);

/// Metric names are [A-Za-z0-9][A-Za-z0-9_.-]*, at most 64 characters.
bool valid_metric_name(std::string_view name);

/// The learn seed of the k-th learn on profile `profile_index`, derived from
/// the workload seed alone: the same workload seed always yields the same
/// learn inputs, and neighbouring seeds share none.
std::uint64_t derive_learn_seed(std::uint64_t workload_seed, int profile_index, int k);

}  // namespace perfbench
