// Forwarding decorators the traced run installs over four public
// interfaces of the program: ClientProvider, SplitFederatedAlgorithm, the
// top-level blocks of a model (Layer) and RoundObserver. Each decorator
// forwards every call unchanged and only adds wall time to a shared tally,
// so a traced run computes exactly what an untraced run computes; the
// benchmark asserts that bit for bit.
//
// Tallies are atomics because the client executor and the event scheduler
// call providers, algorithms and model replicas from several worker threads
// at once.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "fl/algorithm.h"
#include "fl/client_provider.h"
#include "fl/observer.h"
#include "nn/model.h"
#include "nn/sequential.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since an arbitrary fixed origin.
inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Busy nanoseconds and call count, summed over every calling thread.
struct Tally {
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};

  void add(std::int64_t d) {
    ns.fetch_add(d, std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
  double seconds() const {
    return static_cast<double>(ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  std::uint64_t n() const { return calls.load(std::memory_order_relaxed); }
};

inline std::int64_t elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
      .count();
}

/// Wall-clock intervals of client work (materialize, local_update), kept to
/// measure how much of a run's wall time had any client busy.
class SpanLog {
 public:
  void add(double t0, double t1) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.emplace_back(t0, t1);
  }
  /// Length of the union of all recorded intervals.
  double covered_seconds() const {
    std::vector<std::pair<double, double>> s;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      s = spans_;
    }
    std::sort(s.begin(), s.end());
    double total = 0.0, lo = 0.0, hi = 0.0;
    bool open = false;
    for (const auto& [a, b] : s) {
      if (open && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (open) total += hi - lo;
      lo = a;
      hi = b;
      open = true;
    }
    if (open) total += hi - lo;
    return total;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<double, double>> spans_;
};

/// Model time spent by the calling thread inside wrapped blocks. The
/// algorithm decorator reads it around local_update to split the update
/// into model compute and everything else.
inline thread_local std::int64_t t_model_ns = 0;

/// Per-block tallies of one wrapped model architecture.
struct BlockTally {
  Tally fwd_train;
  Tally bwd;
  Tally fwd_eval;
  std::atomic<std::uint64_t> train_samples{0};
};

/// Times one top-level block. clone() wraps the inner clone over the same
/// tally, so the executor's per-worker replicas report into it too, and
/// collect() forwards, which keeps the flat-state layout unchanged.
class TimedLayer final : public hetero::Layer {
 public:
  TimedLayer(std::unique_ptr<hetero::Layer> inner, BlockTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  hetero::Tensor forward(const hetero::Tensor& x, bool train) override {
    const Clock::time_point t0 = Clock::now();
    hetero::Tensor y = inner_->forward(x, train);
    const std::int64_t d = elapsed_ns(t0, Clock::now());
    t_model_ns += d;
    if (train) {
      tally_.fwd_train.add(d);
      if (x.rank() > 0) {
        tally_.train_samples.fetch_add(x.dim(0), std::memory_order_relaxed);
      }
    } else {
      tally_.fwd_eval.add(d);
    }
    return y;
  }

  hetero::Tensor backward(const hetero::Tensor& grad_out) override {
    const Clock::time_point t0 = Clock::now();
    hetero::Tensor g = inner_->backward(grad_out);
    const std::int64_t d = elapsed_ns(t0, Clock::now());
    t_model_ns += d;
    tally_.bwd.add(d);
    return g;
  }

  void collect(hetero::ParamGroup& group) override { inner_->collect(group); }
  std::unique_ptr<hetero::Layer> clone() const override {
    return std::make_unique<TimedLayer>(inner_->clone(), tally_);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<hetero::Layer> inner_;
  BlockTally& tally_;
};

/// A copy of `model` whose top-level Sequential blocks are each wrapped in
/// a TimedLayer reporting into tallies[i] (resized to the block count).
inline std::unique_ptr<hetero::Model> wrap_blocks(
    hetero::Model& model, std::vector<std::unique_ptr<BlockTally>>& tallies) {
  auto* seq = dynamic_cast<hetero::Sequential*>(&model.net());
  HS_CHECK(seq != nullptr, "perfbench: model net is not a Sequential");
  tallies.clear();
  auto net = std::make_unique<hetero::Sequential>();
  for (std::size_t i = 0; i < seq->size(); ++i) {
    tallies.push_back(std::make_unique<BlockTally>());
    net->add(std::make_unique<TimedLayer>(seq->layer(i).clone(),
                                          *tallies.back()));
  }
  return std::make_unique<hetero::Model>(model.id(), std::move(net));
}

/// Times client_dataset; forwards every other member.
class TimedProvider final : public hetero::ClientProvider {
 public:
  TimedProvider(const hetero::ClientProvider& inner, Tally& tally,
                SpanLog& spans)
      : inner_(inner), tally_(tally), spans_(spans) {}

  std::size_t num_clients() const override { return inner_.num_clients(); }
  std::size_t device_of(std::size_t client) const override {
    return inner_.device_of(client);
  }
  double work_of(std::size_t client) const override {
    return inner_.work_of(client);
  }
  const hetero::Dataset& client_dataset(std::size_t client,
                                        hetero::ClientSlot& slot)
      const override {
    const double t0 = now_s();
    const Clock::time_point c0 = Clock::now();
    const hetero::Dataset& data = inner_.client_dataset(client, slot);
    tally_.add(elapsed_ns(c0, Clock::now()));
    spans_.add(t0, now_s());
    return data;
  }
  const std::vector<hetero::Dataset>& device_test() const override {
    return inner_.device_test();
  }
  const std::vector<std::string>& device_names() const override {
    return inner_.device_names();
  }
  const std::vector<double>& device_speed_scale() const override {
    return inner_.device_speed_scale();
  }
  bool population_counters(hetero::PopulationCounters& out) const override {
    return inner_.population_counters(out);
  }
  const std::vector<hetero::Dataset>* dataset_vector() const override {
    return inner_.dataset_vector();
  }

 private:
  const hetero::ClientProvider& inner_;
  Tally& tally_;
  SpanLog& spans_;
};

/// What the algorithm decorator measures.
struct AlgorithmTally {
  std::atomic<std::int64_t> local_update_model_ns{0};
  Tally aggregate;
  Tally partial_aggregate;

  /// (client id, seconds) of every local_update, in completion order.
  void log_update(std::size_t client, double seconds) {
    const std::lock_guard<std::mutex> lock(mu);
    updates.emplace_back(client, seconds);
  }
  std::mutex mu;
  std::vector<std::pair<std::size_t, double>> updates;
};

/// Times local_update (and the model time inside it), aggregate and
/// partial_aggregate; forwards every other virtual, capability flags
/// included, so the executor, the scheduler and the net nodes take the
/// same paths as with the bare algorithm.
class TimedAlgorithm final : public hetero::SplitFederatedAlgorithm {
 public:
  TimedAlgorithm(hetero::SplitFederatedAlgorithm& inner, AlgorithmTally& tally,
                 SpanLog& spans)
      : inner_(inner), tally_(tally), spans_(spans) {}

  void init(hetero::Model& model, std::size_t num_clients) override {
    inner_.init(model, num_clients);
  }
  hetero::ClientUpdate local_update(hetero::Model& model,
                                    const hetero::Tensor& global,
                                    std::size_t client_id,
                                    const hetero::Dataset& data,
                                    hetero::Rng& client_rng) const override {
    const std::int64_t model0 = t_model_ns;
    const double t0 = now_s();
    const Clock::time_point c0 = Clock::now();
    hetero::ClientUpdate u =
        inner_.local_update(model, global, client_id, data, client_rng);
    tally_.log_update(client_id,
                      static_cast<double>(elapsed_ns(c0, Clock::now())) * 1e-9);
    spans_.add(t0, now_s());
    tally_.local_update_model_ns.fetch_add(t_model_ns - model0,
                                           std::memory_order_relaxed);
    return u;
  }
  hetero::RoundStats aggregate(
      hetero::Model& model, const hetero::Tensor& global,
      std::vector<hetero::ClientUpdate>& updates) override {
    const Clock::time_point c0 = Clock::now();
    hetero::RoundStats s = inner_.aggregate(model, global, updates);
    tally_.aggregate.add(elapsed_ns(c0, Clock::now()));
    return s;
  }
  hetero::ClientUpdate partial_aggregate(
      const hetero::Tensor& global,
      std::vector<hetero::ClientUpdate>& group) const override {
    const Clock::time_point c0 = Clock::now();
    hetero::ClientUpdate d = inner_.partial_aggregate(global, group);
    tally_.partial_aggregate.add(elapsed_ns(c0, Clock::now()));
    return d;
  }
  double staleness_weight(std::size_t staleness,
                          double exponent) const override {
    return inner_.staleness_weight(staleness, exponent);
  }
  void save_state(hetero::AlgorithmCheckpoint& out) const override {
    inner_.save_state(out);
  }
  void load_state(const hetero::AlgorithmCheckpoint& in) override {
    inner_.load_state(in);
  }
  bool supports_partial_aggregation() const override {
    return inner_.supports_partial_aggregation();
  }
  bool stateless_client_phase() const override {
    return inner_.stateless_client_phase();
  }
  std::string name() const override { return inner_.name(); }

 private:
  hetero::SplitFederatedAlgorithm& inner_;
  AlgorithmTally& tally_;
  SpanLog& spans_;
};

/// Steady-clock timestamps of the observer events, in delivery order. All
/// events fire on the simulation's caller thread (fl/observer.h).
class ClockObserver final : public hetero::RoundObserver {
 public:
  struct Round {
    double begin = 0.0;
    double first_client = -1.0;  ///< -1 when the round had no client event
    double end = 0.0;
  };
  struct Eval {
    std::size_t round;  ///< rounds (flushes) done when it ran
    double seconds;
  };

  void on_round_begin(std::size_t, const std::vector<std::size_t>&) override {
    rounds.push_back(Round{now_s(), -1.0, 0.0});
  }
  void on_client_end(std::size_t,
                     const hetero::ClientObservation& client) override {
    if (!rounds.empty() && rounds.back().first_client < 0.0) {
      rounds.back().first_client = now_s();
    }
    if (client.train_seconds > 0.0) trained.push_back(client.client_id);
  }
  void on_round_end(std::size_t, const hetero::RoundStats&) override {
    if (!rounds.empty()) rounds.back().end = now_s();
  }
  /// Every engine evaluates right after a round ends and reports the
  /// metrics at once, so the gap since that end is the evaluation time.
  void on_eval(std::size_t round, const hetero::DeviceMetrics&) override {
    if (!rounds.empty()) {
      evals.push_back(Eval{round, now_s() - rounds.back().end});
    }
  }

  std::vector<Round> rounds;
  /// Client ids whose update time the program accounted, in delivery order.
  std::vector<std::size_t> trained;
  /// Checkpoint evaluations, then the final one (round == config rounds).
  std::vector<Eval> evals;
};

}  // namespace perfbench
