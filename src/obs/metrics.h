// Histogram: the exact-percentile latency summary tools/trace_check prints
// over a trace's round and client times (DESIGN.md §8). Not thread-safe;
// one reader fills it.
#pragma once

#include <cstddef>
#include <vector>

namespace hetero::obs {

/// Exact-sample histogram: keeps every observation so percentiles are
/// exact (nearest-rank). Fine at simulation scale — rounds × clients
/// observations, not millions per second.
class Histogram {
 public:
  void observe(double v);

  std::size_t count() const { return samples_.size(); }
  double sum() const { return sum_; }
  double mean() const;
  double min() const;
  double max() const;
  /// Nearest-rank percentile, p in [0, 100]. 0 for an empty histogram.
  double percentile(double p) const;

 private:
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;   // lazily rebuilt percentile cache
  mutable bool sorted_valid_ = false;
  double sum_ = 0.0;
};

}  // namespace hetero::obs
