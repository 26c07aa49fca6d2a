// Parallel client-execution runtime tests: thread pool behaviour, model
// replica cloning, and the determinism contract (results bit-identical for
// any thread count).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "fl/algorithm.h"
#include "fl/compression.h"
#include "fl/observer.h"
#include "fl/privacy.h"
#include "fl/simulation.h"
#include "hetero/heteroswitch.h"
#include "nn/model_zoo.h"
#include "obs/jsonl.h"
#include "obs/tracer.h"
#include "runtime/client_executor.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace hetero {
namespace {

Dataset two_class_data(std::size_t n, float lo, float hi, std::uint64_t seed) {
  Rng rng(seed);
  Tensor xs({n, 3, 8, 8});
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = i % 2;
    const float base = labels[i] == 0 ? lo : hi;
    for (std::size_t j = 0; j < 3 * 64; ++j) {
      xs[i * 3 * 64 + j] = base + rng.uniform_f(-0.05f, 0.05f);
    }
  }
  return Dataset(std::move(xs), std::move(labels));
}

std::unique_ptr<Model> tiny_model(std::uint64_t seed) {
  Rng rng(seed);
  ModelSpec spec;
  spec.arch = "mlp-tiny";
  spec.image_size = 8;
  spec.num_classes = 2;
  return make_model(spec, rng);
}

FlPopulation synthetic_population(std::size_t clients, std::uint64_t seed) {
  FlPopulation pop;
  for (std::size_t i = 0; i < clients; ++i) {
    // Varying sizes exercise the sample-weighted aggregation paths.
    pop.client_train.push_back(
        two_class_data(12 + 2 * (i % 3), 0.15f, 0.85f, seed + i));
    pop.client_device.push_back(0);
  }
  pop.device_test.push_back(two_class_data(32, 0.15f, 0.85f, seed + 100));
  pop.device_names.push_back("synthetic");
  return pop;
}

LocalTrainConfig fast_cfg() {
  LocalTrainConfig cfg;
  cfg.lr = 0.05f;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  return cfg;
}

void expect_same_metrics(const DeviceMetrics& a, const DeviceMetrics& b) {
  ASSERT_EQ(a.per_device.size(), b.per_device.size());
  for (std::size_t i = 0; i < a.per_device.size(); ++i) {
    EXPECT_EQ(a.per_device[i], b.per_device[i]);
  }
  EXPECT_EQ(a.average, b.average);
  EXPECT_EQ(a.variance, b.variance);
  EXPECT_EQ(a.worst_case, b.worst_case);
}

// -------------------------------------------------------------- ThreadPool --

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleWorkerPoolRunsIndicesInOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;  // single worker: no synchronization needed
  pool.parallel_for(64, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ParallelForPropagatesWorkerException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives a poisoned loop and keeps accepting work.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ParallelForZeroIterationsIsNoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, SubmitFuturePropagatesException) {
  ThreadPool pool(2);
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, WorkerIndexIsBoundedInsideAndNposOutside) {
  EXPECT_EQ(ThreadPool::worker_index(), ThreadPool::npos);
  ThreadPool pool(4);
  std::atomic<bool> bounded{true};
  pool.parallel_for(256, [&](std::size_t) {
    if (ThreadPool::worker_index() >= 4) bounded = false;
  });
  EXPECT_TRUE(bounded.load());
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

// ------------------------------------------------------------ two-key fork --

TEST(RngFork2, DeterministicAndKeyOrderSensitive) {
  Rng rng(123);
  Rng a1 = rng.fork(3, 7);
  Rng a2 = rng.fork(3, 7);
  Rng b = rng.fork(7, 3);
  Rng c = rng.fork(3, 8);
  const std::uint64_t va = a1.next_u64();
  EXPECT_EQ(va, a2.next_u64());
  EXPECT_NE(va, b.next_u64());
  EXPECT_NE(va, c.next_u64());
}

// ------------------------------------------------------------- Model clone --

TEST(ModelClone, ConvArchCloneIsDeepAndStateIdentical) {
  // mobile-mini exercises Conv2d, BatchNorm2d, SEBlock, InvertedResidual,
  // Sequential, pooling and Linear clones in one go.
  Rng rng(11);
  ModelSpec spec;
  spec.arch = "mobile-mini";
  spec.image_size = 16;
  spec.num_classes = 4;
  auto model = make_model(spec, rng);
  auto copy = model->clone();

  ASSERT_EQ(copy->state_size(), model->state_size());
  const Tensor s0 = model->state();
  const Tensor s1 = copy->state();
  for (std::size_t j = 0; j < s0.size(); ++j) EXPECT_EQ(s0[j], s1[j]);

  // Mutating the clone must not leak into the original.
  Tensor altered = s1;
  for (std::size_t j = 0; j < altered.size(); ++j) altered[j] += 1.0f;
  copy->set_state(altered);
  const Tensor s0_after = model->state();
  for (std::size_t j = 0; j < s0.size(); ++j) EXPECT_EQ(s0[j], s0_after[j]);
}

TEST(ModelClone, CloneForwardMatchesOriginal) {
  auto model = tiny_model(21);
  auto copy = model->clone();
  Rng rng(22);
  Tensor x({2, 3, 8, 8});
  for (std::size_t j = 0; j < x.size(); ++j) x[j] = rng.uniform_f(0.0f, 1.0f);
  const Tensor ya = model->forward(x);
  const Tensor yb = copy->forward(x);
  ASSERT_EQ(ya.size(), yb.size());
  for (std::size_t j = 0; j < ya.size(); ++j) EXPECT_EQ(ya[j], yb[j]);
}

// ---------------------------------------------- determinism across threads --

SimulationResult run_sim(SplitFederatedAlgorithm& algo, std::size_t num_threads,
                         std::uint64_t seed) {
  auto model = tiny_model(seed);
  const MaterializedPopulation pop(synthetic_population(8, 500));
  SimulationConfig sim;
  sim.rounds = 5;
  sim.clients_per_round = 4;
  sim.seed = seed;
  sim.num_threads = num_threads;
  return run_simulation(*model, algo, pop, sim);
}

TEST(Determinism, FedAvgBitIdenticalAcrossThreadCounts) {
  FedAvg a1(fast_cfg());
  FedAvg a4(fast_cfg());
  const SimulationResult r1 = run_sim(a1, 1, 33);
  const SimulationResult r4 = run_sim(a4, 4, 33);
  ASSERT_EQ(r1.train_loss_history.size(), r4.train_loss_history.size());
  for (std::size_t t = 0; t < r1.train_loss_history.size(); ++t) {
    EXPECT_EQ(r1.train_loss_history[t], r4.train_loss_history[t]);
  }
  expect_same_metrics(r1.final_metrics, r4.final_metrics);
}

TEST(Determinism, HeteroSwitchBitIdenticalAcrossThreadCounts) {
  HeteroSwitchOptions opts;  // selective mode, train-loss criterion
  HeteroSwitch h1(fast_cfg(), opts);
  HeteroSwitch h4(fast_cfg(), opts);
  const SimulationResult r1 = run_sim(h1, 1, 44);
  const SimulationResult r4 = run_sim(h4, 4, 44);
  ASSERT_EQ(r1.train_loss_history.size(), r4.train_loss_history.size());
  for (std::size_t t = 0; t < r1.train_loss_history.size(); ++t) {
    EXPECT_EQ(r1.train_loss_history[t], r4.train_loss_history[t]);
  }
  expect_same_metrics(r1.final_metrics, r4.final_metrics);
  // The switching decisions and EMA must replay identically too.
  EXPECT_EQ(h1.switch1_activations(), h4.switch1_activations());
  EXPECT_EQ(h1.switch2_activations(), h4.switch2_activations());
  EXPECT_EQ(h1.client_updates(), h4.client_updates());
  EXPECT_EQ(h1.ema_loss(), h4.ema_loss());
}

TEST(Determinism, ScaffoldBitIdenticalAcrossThreadCounts) {
  Scaffold s1(fast_cfg());
  Scaffold s3(fast_cfg());
  const SimulationResult r1 = run_sim(s1, 1, 55);
  const SimulationResult r3 = run_sim(s3, 3, 55);
  for (std::size_t t = 0; t < r1.train_loss_history.size(); ++t) {
    EXPECT_EQ(r1.train_loss_history[t], r3.train_loss_history[t]);
  }
  expect_same_metrics(r1.final_metrics, r3.final_metrics);
}

TEST(Determinism, DpFedAvgBitIdenticalAcrossThreadCounts) {
  // DP-FedAvg is split now: clients clip in parallel while the server noise
  // stream stays serial, so results must replay for any thread count.
  DpOptions opts;
  DpFedAvg d1(fast_cfg(), opts);
  DpFedAvg d4(fast_cfg(), opts);
  static_assert(std::is_base_of_v<SplitFederatedAlgorithm, DpFedAvg>);
  const SimulationResult r1 = run_sim(d1, 1, 66);
  const SimulationResult r4 = run_sim(d4, 4, 66);
  for (std::size_t t = 0; t < r1.train_loss_history.size(); ++t) {
    EXPECT_EQ(r1.train_loss_history[t], r4.train_loss_history[t]);
  }
  expect_same_metrics(r1.final_metrics, r4.final_metrics);
}

TEST(Determinism, CompressedFedAvgBitIdenticalAcrossThreadCounts) {
  // The error-feedback residuals are read in the client phase and written
  // in the serial aggregate; replay must be exact across thread counts.
  CompressionOptions opts;
  CompressedFedAvg c1(fast_cfg(), opts);
  CompressedFedAvg c4(fast_cfg(), opts);
  static_assert(std::is_base_of_v<SplitFederatedAlgorithm, CompressedFedAvg>);
  const SimulationResult r1 = run_sim(c1, 1, 67);
  const SimulationResult r4 = run_sim(c4, 4, 67);
  for (std::size_t t = 0; t < r1.train_loss_history.size(); ++t) {
    EXPECT_EQ(r1.train_loss_history[t], r4.train_loss_history[t]);
  }
  expect_same_metrics(r1.final_metrics, r4.final_metrics);
}

// ---------------------------------------------------------- runtime stats --

TEST(RuntimeStats, PopulatedBySimulation) {
  FedAvg algo(fast_cfg());
  const SimulationResult r = run_sim(algo, 2, 77);
  EXPECT_EQ(r.runtime.threads, 2u);
  ASSERT_EQ(r.runtime.round_seconds.size(), 5u);
  double sum = 0.0;
  for (double s : r.runtime.round_seconds) {
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_GT(r.runtime.total_seconds, 0.0);
  EXPECT_NEAR(r.runtime.total_seconds, sum, 1e-9);
  EXPECT_GT(r.runtime.client_seconds_sum, 0.0);
  EXPECT_GT(r.runtime.client_seconds_max, 0.0);
  EXPECT_LE(r.runtime.client_seconds_max, r.runtime.client_seconds_sum);
}

TEST(RuntimeStats, ZeroThreadsResolvesToHardwareConcurrency) {
  ClientExecutor executor(0);
  EXPECT_GE(executor.num_threads(), 1u);
}

// ------------------------------------------------- executor direct checks --

TEST(ClientExecutor, OneThreadMatchesFourThreadsExactly) {
  // One round on a one-thread executor (inline on the shared model) vs. a
  // four-thread one (per-worker replicas), from identical starting points.
  const MaterializedPopulation pop(synthetic_population(6, 900));
  const std::vector<std::size_t> selected = {4, 1, 3};

  auto model_a = tiny_model(88);
  FedAvg algo_a(fast_cfg());
  Rng rng_a(5);
  ClientExecutor serial(1);
  const RoundStats ref =
      serial.run_round(*model_a, algo_a, selected, pop, rng_a);

  auto model_b = tiny_model(88);
  FedAvg algo_b(fast_cfg());
  Rng rng_b(5);
  ClientExecutor executor(4);
  RoundRuntime runtime;
  const RoundStats got =
      executor.run_round(*model_b, algo_b, selected, pop, rng_b, &runtime);

  EXPECT_EQ(ref.mean_train_loss, got.mean_train_loss);
  EXPECT_EQ(executor.num_threads(), 4u);
  EXPECT_GT(runtime.client_seconds_sum, 0.0);
  const Tensor sa = model_a->state();
  const Tensor sb = model_b->state();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t j = 0; j < sa.size(); ++j) EXPECT_EQ(sa[j], sb[j]);
}

// ----------------------------------------------------- RoundObserver API --

// Records every observer event as a deterministic text line (wall-clock
// fields excluded), so two runs can be compared with string equality.
class RecordingObserver : public RoundObserver {
 public:
  void on_round_begin(std::size_t round,
                      const std::vector<std::size_t>& selected) override {
    std::string line = "begin r=" + std::to_string(round) + " sel=";
    for (std::size_t id : selected) line += std::to_string(id) + ",";
    log.push_back(std::move(line));
  }
  void on_client_end(std::size_t round,
                     const ClientObservation& c) override {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "client r=%zu id=%zu ord=%zu w=%.17g loss=%.17g f=%u b=%zu",
                  round, c.client_id, c.order, c.weight, c.train_loss,
                  c.flags, c.update_bytes);
    log.push_back(buf);
  }
  void on_round_end(std::size_t round, const RoundStats& s) override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "end r=%zu loss=%.17g min=%.17g max=%.17g n=%zu w=%.17g "
                  "up=%zu down=%zu",
                  round, s.mean_train_loss, s.min_train_loss,
                  s.max_train_loss, s.num_clients, s.weight_sum, s.bytes_up,
                  s.bytes_down);
    std::string line = buf;
    for (const auto& [key, value] : s.extras) {
      char ebuf[96];
      std::snprintf(ebuf, sizeof(ebuf), " %s=%.17g", key.c_str(), value);
      line += ebuf;
    }
    log.push_back(std::move(line));
  }
  void on_eval(std::size_t round, const DeviceMetrics& m) override {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "eval r=%zu avg=%.17g var=%.17g wc=%.17g",
                  round, m.average, m.variance, m.worst_case);
    log.push_back(buf);
  }

  std::vector<std::string> log;
};

SimulationResult run_observed(SplitFederatedAlgorithm& algo, RoundObserver& obs,
                              std::size_t num_threads, std::uint64_t seed,
                              std::size_t eval_every = 0) {
  auto model = tiny_model(seed);
  const MaterializedPopulation pop(synthetic_population(8, 500));
  SimulationConfig sim;
  sim.rounds = 5;
  sim.clients_per_round = 4;
  sim.seed = seed;
  sim.num_threads = num_threads;
  sim.eval_every = eval_every;
  sim.observer = &obs;
  return run_simulation(*model, algo, pop, sim);
}

TEST(Observer, EventsArriveInSelectedOrderWithinEachRound) {
  FedAvg algo(fast_cfg());
  RecordingObserver rec;
  run_observed(algo, rec, 4, 91);
  // 5 rounds x (begin + 4 clients + end) + the final eval.
  ASSERT_EQ(rec.log.size(), 5u * 6u + 1u);
  for (std::size_t r = 0; r < 5; ++r) {
    const std::size_t base = r * 6;
    EXPECT_EQ(rec.log[base].rfind("begin r=" + std::to_string(r), 0), 0u)
        << rec.log[base];
    for (std::size_t i = 0; i < 4; ++i) {
      const std::string want =
          "client r=" + std::to_string(r) + " id=";
      EXPECT_EQ(rec.log[base + 1 + i].rfind(want, 0), 0u)
          << rec.log[base + 1 + i];
      // The parallel path must flush client events in `selected` order.
      const std::string ord = "ord=" + std::to_string(i) + " ";
      EXPECT_NE(rec.log[base + 1 + i].find(ord), std::string::npos)
          << rec.log[base + 1 + i];
    }
    EXPECT_EQ(rec.log[base + 5].rfind("end r=" + std::to_string(r), 0), 0u)
        << rec.log[base + 5];
  }
  EXPECT_EQ(rec.log.back().rfind("eval r=5 ", 0), 0u) << rec.log.back();
}

TEST(Observer, PayloadsIdenticalAcrossThreadCounts) {
  FedAvg a1(fast_cfg());
  FedAvg a4(fast_cfg());
  RecordingObserver rec1, rec4;
  run_observed(a1, rec1, 1, 92);
  run_observed(a4, rec4, 4, 92);
  ASSERT_EQ(rec1.log.size(), rec4.log.size());
  for (std::size_t i = 0; i < rec1.log.size(); ++i) {
    EXPECT_EQ(rec1.log[i], rec4.log[i]) << "event " << i;
  }
}

TEST(Observer, HeteroSwitchPayloadsIdenticalAcrossThreadCounts) {
  // HeteroSwitch carries per-round extras (switch counters, EMA) which must
  // also replay identically.
  HeteroSwitchOptions opts;
  HeteroSwitch h1(fast_cfg(), opts);
  HeteroSwitch h3(fast_cfg(), opts);
  RecordingObserver rec1, rec3;
  run_observed(h1, rec1, 1, 93);
  run_observed(h3, rec3, 3, 93);
  ASSERT_EQ(rec1.log.size(), rec3.log.size());
  for (std::size_t i = 0; i < rec1.log.size(); ++i) {
    EXPECT_EQ(rec1.log[i], rec3.log[i]) << "event " << i;
  }
}

TEST(Observer, TraceBytesIdenticalAcrossThreadCounts) {
  // With timings off, the full JSONL trace must be byte-identical for any
  // thread count (acceptance criterion; DESIGN.md §8).
  auto traced_run = [](std::size_t num_threads) {
    std::ostringstream out;
    obs::JsonlWriter writer(out);
    obs::TracerOptions options;
    options.include_timings = false;
    obs::Tracer tracer(writer, options);
    tracer.begin_run("determinism");
    TracingObserver observer(tracer);
    FedAvg algo(fast_cfg());
    run_observed(algo, observer, num_threads, 94, /*eval_every=*/2);
    return out.str();
  };
  const std::string t1 = traced_run(1);
  const std::string t4 = traced_run(4);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t4);
}

TEST(Observer, EvalFiresAtCheckpointsAndFinal) {
  FedAvg algo(fast_cfg());
  RecordingObserver rec;
  const SimulationResult r = run_observed(algo, rec, 2, 95, /*eval_every=*/2);
  std::vector<std::string> evals;
  for (const auto& line : rec.log) {
    if (line.rfind("eval ", 0) == 0) evals.push_back(line);
  }
  // Checkpoints after rounds 2 and 4, then the final eval after round 5.
  ASSERT_EQ(evals.size(), 3u);
  EXPECT_EQ(evals[0].rfind("eval r=2 ", 0), 0u) << evals[0];
  EXPECT_EQ(evals[1].rfind("eval r=4 ", 0), 0u) << evals[1];
  EXPECT_EQ(evals[2].rfind("eval r=5 ", 0), 0u) << evals[2];
  EXPECT_EQ(r.checkpoints.size(), 2u);
}

/// Records (round, mean train loss) at every round end.
class LossObserver : public RoundObserver {
 public:
  void on_round_end(std::size_t round, const RoundStats& stats) override {
    hits.push_back({round, stats.mean_train_loss});
  }
  std::vector<std::pair<std::size_t, double>> hits;
};

TEST(Observer, MulticastFansOutToEveryChild) {
  RecordingObserver a, b;
  MulticastObserver multi;
  multi.add(&a);
  multi.add(nullptr);  // ignored
  multi.add(&b);
  EXPECT_FALSE(multi.empty());

  LossObserver losses;
  multi.add(&losses);
  const auto& callback_hits = losses.hits;

  FedAvg algo(fast_cfg());
  run_observed(algo, multi, 2, 99);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) EXPECT_EQ(a.log[i], b.log[i]);
  // The loss observer fires once per round with the round's mean loss.
  ASSERT_EQ(callback_hits.size(), 5u);
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_EQ(callback_hits[r].first, r);
    std::string want;
    {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "loss=%.17g ", callback_hits[r].second);
      want = buf;
    }
    EXPECT_NE(a.log[r * 6 + 5].find(want), std::string::npos)
        << a.log[r * 6 + 5];
  }
}

}  // namespace
}  // namespace hetero
