// Spreads one thread's work over every CPU the process may run on.
//
// A shared host slows its vCPUs one at a time, for tens of seconds, and the
// kernel keeps a lone busy thread on one vCPU. A single-threaded figure then
// reads the luck of one vCPU: four copies of the loopback_edges workload,
// each pinned to its own vCPU and started together, differed by up to 30%
// in throughput. Pinning the thread to each allowed CPU in turn averages
// over all of them, as a run on every core does.
//
// A thread inherits its creator's CPU mask, so nothing may start threads
// while the caller is pinned: release() first.
#pragma once

#include <sched.h>

#include <cstddef>
#include <vector>

#include "fl/observer.h"

namespace perfbench {

class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next allowed CPU, round robin.
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  /// Gives the calling thread back the mask it started with.
  void release() {
    if (pinned_) sched_setaffinity(0, sizeof allowed_, &allowed_);
    pinned_ = false;
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  bool pinned_ = false;
};

/// Moves the engine's calling thread to the next CPU at every round begin.
/// Only for an engine that runs on that one thread.
class RotateEachRound final : public hetero::RoundObserver {
 public:
  explicit RotateEachRound(CpuRotation& rotation) : rotation_(rotation) {}
  void on_round_begin(std::size_t, const std::vector<std::size_t>&) override {
    rotation_.next();
  }

 private:
  CpuRotation& rotation_;
};

}  // namespace perfbench
