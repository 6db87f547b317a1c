// Order statistics and the run's printed report.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before it may be reported.
inline constexpr std::size_t kTailSupport = 10;

/// Nearest-rank percentile (q in (0, 1]) of `values`, or nullopt when
/// fewer than kTailSupport samples lie beyond it (the median of fewer
/// than 2 * kTailSupport + 1 samples included).
[[nodiscard]] inline std::optional<double> supported_percentile(
    std::vector<double> values, double q) {
  const std::size_t n = values.size();
  if (n == 0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (n - index - 1 < kTailSupport) return std::nullopt;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

/// Plain median (no tail rule), for per-call layer timings.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(),
                        values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count, base of a ratio, ...
};

/// Prints `metric <name> = <value> <unit>  [note]` lines as they are
/// added and renders the final one-line JSON result.
class Report {
 public:
  void info(const std::string& key, const std::string& value);
  void add(Metric metric);
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  [[nodiscard]] std::string result_json(bool correct, std::size_t attempted,
                                        std::size_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
