#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace hetero::obs {

void Histogram::observe(double v) {
  samples_.push_back(v);
  sum_ += v;
  sorted_valid_ = false;
}

double Histogram::mean() const {
  return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

double Histogram::min() const {
  return samples_.empty()
             ? 0.0
             : *std::min_element(samples_.begin(), samples_.end());
}

double Histogram::max() const {
  return samples_.empty()
             ? 0.0
             : *std::max_element(samples_.begin(), samples_.end());
}

double Histogram::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: the smallest value with at least p% of samples <= it.
  const double n = static_cast<double>(sorted_.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank > 0) --rank;
  return sorted_[std::min(rank, sorted_.size() - 1)];
}

}  // namespace hetero::obs
