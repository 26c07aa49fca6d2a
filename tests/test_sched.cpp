// Event-scheduler tests (DESIGN.md §11): HS_SCHED spec parsing, the
// (time, seq)-ordered event queue, device-tier delay modeling, staleness
// decay, edge groups and memory in every mode, and — the point of the
// subsystem — determinism: the degenerate buffered configuration is
// bit-identical to sync, and async / buffered runs and one-client batches
// are bit-identical for any thread count, faults included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <stdexcept>
#include <vector>

#include "fl/algorithm.h"
#include "fl/observer.h"
#include "fl/simulation.h"
#include "kernels/kernels.h"
#include "nn/model_zoo.h"
#include "runtime/faults.h"
#include "runtime/sched/delay_model.h"
#include "runtime/sched/event_queue.h"
#include "runtime/sched/sched_options.h"
#include "util/rng.h"

namespace hetero {
namespace {

Dataset two_class_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tensor xs({n, 3, 8, 8});
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = i % 2;
    const float base = labels[i] == 0 ? 0.15f : 0.85f;
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
    pop.client_train.push_back(two_class_data(12 + 2 * (i % 3), seed + i));
    pop.client_device.push_back(0);
  }
  pop.device_test.push_back(two_class_data(32, seed + 100));
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

/// One simulation run plus the final model state, so determinism checks
/// can compare the actual weights, not just derived metrics.
struct SchedRun {
  SimulationResult result;
  Tensor state;
};

SchedRun run_sched(const SchedulerOptions& sched, const FaultOptions& faults,
                   std::size_t num_threads, std::uint64_t seed,
                   std::size_t rounds = 4, std::size_t clients_per_round = 4,
                   RoundObserver* observer = nullptr) {
  auto model = tiny_model(seed);
  FedAvg algo(fast_cfg());
  const MaterializedPopulation pop(synthetic_population(8, 500));
  SimulationConfig sim;
  sim.rounds = rounds;
  sim.clients_per_round = clients_per_round;
  sim.seed = seed;
  sim.num_threads = num_threads;
  sim.faults = faults;
  sim.sched = sched;
  sim.observer = observer;
  SimulationResult result = run_simulation(*model, algo, pop, sim);
  return SchedRun{std::move(result), model->state()};
}

void expect_same_state(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

/// Bit-identity across two scheduled runs: losses, metrics, model weights,
/// fault/staleness counters and the virtual clock itself must all match.
void expect_same_sched(const SchedRun& a, const SchedRun& b) {
  ASSERT_EQ(a.result.train_loss_history.size(),
            b.result.train_loss_history.size());
  for (std::size_t t = 0; t < a.result.train_loss_history.size(); ++t) {
    EXPECT_EQ(a.result.train_loss_history[t], b.result.train_loss_history[t])
        << "flush " << t;
  }
  ASSERT_EQ(a.result.final_metrics.per_device.size(),
            b.result.final_metrics.per_device.size());
  for (std::size_t i = 0; i < a.result.final_metrics.per_device.size(); ++i) {
    EXPECT_EQ(a.result.final_metrics.per_device[i],
              b.result.final_metrics.per_device[i]);
  }
  expect_same_state(a.state, b.state);
  const RuntimeStats& ra = a.result.runtime;
  const RuntimeStats& rb = b.result.runtime;
  EXPECT_EQ(ra.clients_dropped, rb.clients_dropped);
  EXPECT_EQ(ra.clients_quarantined, rb.clients_quarantined);
  EXPECT_EQ(ra.clients_straggled, rb.clients_straggled);
  EXPECT_EQ(ra.fault_retries, rb.fault_retries);
  EXPECT_EQ(ra.rounds_aborted, rb.rounds_aborted);
  EXPECT_EQ(ra.clients_dispatched, rb.clients_dispatched);
  EXPECT_EQ(ra.updates_committed, rb.updates_committed);
  EXPECT_EQ(ra.staleness_max, rb.staleness_max);
  EXPECT_EQ(ra.staleness_mean, rb.staleness_mean);
  EXPECT_EQ(ra.virtual_seconds, rb.virtual_seconds);
  ASSERT_EQ(ra.round_virtual_seconds.size(), rb.round_virtual_seconds.size());
  for (std::size_t t = 0; t < ra.round_virtual_seconds.size(); ++t) {
    EXPECT_EQ(ra.round_virtual_seconds[t], rb.round_virtual_seconds[t]);
  }
}

/// Records every observer event for structural assertions.
struct RecordingObserver : RoundObserver {
  struct Flush {
    std::vector<std::size_t> selected;
    std::vector<ClientObservation> clients;
    RoundStats stats;
  };
  std::vector<Flush> flushes;

  void on_round_begin(std::size_t,
                      const std::vector<std::size_t>& selected) override {
    flushes.push_back({});
    flushes.back().selected = selected;
  }
  void on_client_end(std::size_t, const ClientObservation& c) override {
    flushes.back().clients.push_back(c);
  }
  void on_round_end(std::size_t, const RoundStats& stats) override {
    flushes.back().stats = stats;
  }
};

// -------------------------------------------------------------- sched spec --

TEST(SchedSpec, EmptySpecIsSync) {
  const SchedulerOptions o = parse_sched_spec("");
  EXPECT_EQ(o.mode, SchedMode::kSync);
  EXPECT_FALSE(o.scheduled());
}

TEST(SchedSpec, BareModeTokenAndKeys) {
  const SchedulerOptions a = parse_sched_spec("async");
  EXPECT_EQ(a.mode, SchedMode::kAsync);
  EXPECT_TRUE(a.scheduled());

  const SchedulerOptions b = parse_sched_spec(
      "buffered,buffer=8,alpha=0.6,exp=1.5,compute=0.01,wave=1");
  EXPECT_EQ(b.mode, SchedMode::kBuffered);
  EXPECT_EQ(b.buffer, 8u);
  EXPECT_DOUBLE_EQ(b.mix_alpha, 0.6);
  EXPECT_DOUBLE_EQ(b.staleness_exponent, 1.5);
  EXPECT_DOUBLE_EQ(b.base_compute_s, 0.01);
  EXPECT_TRUE(b.wave_sampling);

  const SchedulerOptions c = parse_sched_spec("mode=async,exp=1");
  EXPECT_EQ(c.mode, SchedMode::kAsync);
  EXPECT_DOUBLE_EQ(c.staleness_exponent, 1.0);
}

TEST(SchedSpec, ResolveBufferDefaults) {
  SchedulerOptions o;
  o.mode = SchedMode::kAsync;
  o.buffer = 8;  // async always flushes per arrival, buffer is ignored
  EXPECT_EQ(o.resolve_buffer(20), 1u);
  o.mode = SchedMode::kBuffered;
  o.buffer = 0;  // 0 = sync-shaped default: the round size k
  EXPECT_EQ(o.resolve_buffer(20), 20u);
  o.buffer = 8;
  EXPECT_EQ(o.resolve_buffer(20), 8u);
}

TEST(SchedSpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_sched_spec("bogus"), std::invalid_argument);
  EXPECT_THROW(parse_sched_spec("async,bogus=1"), std::invalid_argument);
  EXPECT_THROW(parse_sched_spec("buffer=x"), std::invalid_argument);
  EXPECT_THROW(parse_sched_spec("async,buffer"), std::invalid_argument);
  EXPECT_THROW(parse_sched_spec("buffered,buffer=-1"), std::invalid_argument);
  for (const char* spec :
       {"async,alpha=nan", "async,alpha=inf", "async,alpha=0",
        "async,alpha=1.5", "async,exp=-1", "async,exp=inf",
        "async,compute=-1", "async,alpha=0x1p-1"}) {
    EXPECT_THROW(parse_sched_spec(spec), std::invalid_argument) << spec;
  }
  EXPECT_NO_THROW(parse_sched_spec("async,alpha=1,exp=0,compute=0"));
}

// ------------------------------------------------------------- event queue --

TEST(EventQueueOrder, PopsByTimeThenScheduleSeq) {
  EventQueue q;
  EXPECT_EQ(q.push(5.0, 10), 0u);
  EXPECT_EQ(q.push(3.0, 11), 1u);
  EXPECT_EQ(q.push(5.0, 12), 2u);  // same time as dispatch 10: later seq
  EXPECT_EQ(q.push(1.0, 13), 3u);
  EXPECT_EQ(q.size(), 4u);

  EXPECT_EQ(q.pop().dispatch, 13u);  // t=1
  EXPECT_EQ(q.pop().dispatch, 11u);  // t=3
  const SchedEvent a = q.pop();      // t=5, seq 0 beats seq 2
  EXPECT_EQ(a.dispatch, 10u);
  EXPECT_EQ(a.seq, 0u);
  EXPECT_EQ(q.pop().dispatch, 12u);
  EXPECT_TRUE(q.empty());
}

// ------------------------------------------------------------- delay model --

TEST(DelayModelTiers, SlowTiersAreSlowerAndDeterministic) {
  for (const char* vendor : {"vendorA", "vendorB", "vendorC"}) {
    const double h = tier_speed_scale('H', vendor);
    const double m = tier_speed_scale('M', vendor);
    const double l = tier_speed_scale('L', vendor);
    EXPECT_LT(h, m) << vendor;
    EXPECT_LT(m, l) << vendor;
    EXPECT_NEAR(m, 1.0, 0.05) << vendor;  // M is the 1.0 reference tier
    EXPECT_EQ(h, tier_speed_scale('H', vendor));  // pure function
  }
  // The vendor nudge separates same-tier devices.
  EXPECT_NE(tier_speed_scale('L', "vendorA"), tier_speed_scale('L', "vendorB"));
}

TEST(DelayModelCompute, ZeroBaseMeansInstantCompute) {
  DelayModel m;
  EXPECT_EQ(m.compute_seconds(0, 0.7), 0.0);
}

TEST(DelayModelCompute, ScalesWithWorkScaleAndJitter) {
  DelayModel m;
  m.base_compute_s = 0.01;
  m.jitter_frac = 0.0;
  EXPECT_DOUBLE_EQ(m.compute_seconds(3, 1.0), 0.01);  // defaults: work=scale=1
  // Two clients of 10 and 20 samples on devices with speed scales 1 and 2:
  // the provider is the one source of per-client work and speed.
  FlPopulation two;
  two.client_train.push_back(two_class_data(10, 1));
  two.client_train.push_back(two_class_data(20, 2));
  two.client_device = {0, 1};
  two.device_names = {"fast", "slow"};
  two.device_speed_scale = {1.0, 2.0};
  const MaterializedPopulation pop(std::move(two));
  m.provider = &pop;
  EXPECT_DOUBLE_EQ(m.compute_seconds(1, 0.0), 0.01 * 20.0 * 2.0);
  m.jitter_frac = 0.1;
  EXPECT_GT(m.compute_seconds(1, 1.0), m.compute_seconds(1, -1.0));
  EXPECT_GE(m.compute_seconds(1, -1.0), 0.0);
}

// --------------------------------------------------------- staleness decay --

TEST(StalenessWeight, FreshUpdatesKeepExactFedAvgWeight) {
  FedAvg algo(fast_cfg());
  EXPECT_EQ(algo.staleness_weight(0, 0.5), 1.0);  // exact, not approximate
  EXPECT_EQ(algo.staleness_weight(0, 2.0), 1.0);
  EXPECT_EQ(algo.staleness_weight(7, 0.0), 1.0);  // exponent 0 disables decay
}

TEST(StalenessWeight, DecaysMonotonically) {
  FedAvg algo(fast_cfg());
  EXPECT_DOUBLE_EQ(algo.staleness_weight(1, 1.0), 0.5);
  double prev = 1.0;
  for (std::size_t s = 1; s <= 8; ++s) {
    const double w = algo.staleness_weight(s, 0.5);
    EXPECT_LT(w, prev) << "staleness " << s;
    EXPECT_GT(w, 0.0);
    prev = w;
  }
}

// ---------------------------------------------------- degenerate == sync --

TEST(SchedDegenerate, BufferedWaveAtFullRoundSizeMatchesSyncBitForBit) {
  // buffered + wave sampling + buffer == k + no delays is sync FedAvg in
  // scheduler clothing: same selection draws, same client RNG streams,
  // staleness identically 0 (weights untouched), one flush per wave.
  const SchedRun sync = run_sched(SchedulerOptions{}, FaultOptions{}, 2, 314);
  SchedulerOptions degenerate;
  degenerate.mode = SchedMode::kBuffered;
  degenerate.buffer = 0;  // resolve to k
  degenerate.wave_sampling = true;
  const SchedRun sched = run_sched(degenerate, FaultOptions{}, 2, 314);

  ASSERT_EQ(sync.result.train_loss_history.size(),
            sched.result.train_loss_history.size());
  for (std::size_t t = 0; t < sync.result.train_loss_history.size(); ++t) {
    EXPECT_EQ(sync.result.train_loss_history[t],
              sched.result.train_loss_history[t])
        << "round " << t;
  }
  ASSERT_EQ(sync.result.final_metrics.per_device.size(),
            sched.result.final_metrics.per_device.size());
  for (std::size_t i = 0; i < sync.result.final_metrics.per_device.size();
       ++i) {
    EXPECT_EQ(sync.result.final_metrics.per_device[i],
              sched.result.final_metrics.per_device[i]);
  }
  expect_same_state(sync.state, sched.state);
  EXPECT_EQ(sched.result.runtime.staleness_max, 0u);
  EXPECT_EQ(sched.result.runtime.updates_committed, 4u * 4u);
}

// --------------------------------------------- determinism across threads --

TEST(SchedDeterminism, AsyncBitIdenticalAcrossThreadCounts) {
  SchedulerOptions sched = parse_sched_spec("async,compute=0.001");
  const FaultOptions faults =
      parse_fault_spec("drop=0.1,straggle=0.4,delay=0.3,corrupt=0.1");
  const SchedRun r1 = run_sched(sched, faults, 1, 321, 8);
  const SchedRun r2 = run_sched(sched, faults, 2, 321, 8);
  const SchedRun r8 = run_sched(sched, faults, 8, 321, 8);
  // The scenario must actually exercise staleness and fault paths.
  EXPECT_GT(r1.result.runtime.clients_dispatched, 8u);
  EXPECT_GT(r1.result.runtime.staleness_max +
                r1.result.runtime.clients_dropped +
                r1.result.runtime.clients_straggled,
            0u);
  expect_same_sched(r1, r2);
  expect_same_sched(r1, r8);
}

TEST(SchedDeterminism, BufferedBitIdenticalAcrossThreadCounts) {
  SchedulerOptions sched = parse_sched_spec("buffered,buffer=3,compute=0.001");
  const FaultOptions faults = parse_fault_spec("straggle=0.5,delay=0.2");
  const SchedRun r1 = run_sched(sched, faults, 1, 654, 6);
  const SchedRun r4 = run_sched(sched, faults, 4, 654, 6);
  EXPECT_GT(r1.result.runtime.clients_straggled, 0u);
  expect_same_sched(r1, r4);
}

/// Restores the process kernel kind on scope exit.
struct ModeGuard {
  kernels::KernelKind saved_kind = kernels::active_kernel();
  ~ModeGuard() { kernels::set_active_kernel(saved_kind); }
};

/// Synthetic separable two-class image set (label encoded in brightness).
Dataset make_separable(std::size_t n, std::size_t seed) {
  Rng rng(seed);
  Tensor xs({n, 3, 8, 8});
  std::vector<std::size_t> labels(n);
  for (std::size_t j = 0; j < n; ++j) {
    labels[j] = j % 2;
    const float base = labels[j] == 0 ? 0.2f : 0.8f;
    for (std::size_t p = 0; p < 3 * 64; ++p) {
      xs[j * 3 * 64 + p] = base + rng.uniform_f(-0.05f, 0.05f);
    }
  }
  return Dataset(std::move(xs), std::move(labels));
}

SimulationResult run_one_client_sim(std::size_t num_threads) {
  ModeGuard guard;
  kernels::set_active_kernel(kernels::KernelKind::kTiled);
  Rng mrng(31);
  ModelSpec spec;
  spec.arch = "squeeze-mini";
  spec.image_size = 8;
  spec.num_classes = 2;
  auto model = make_model(spec, mrng);

  FlPopulation data;
  for (std::size_t i = 0; i < 4; ++i) {
    data.client_train.push_back(make_separable(8, 600 + i));
    data.client_device.push_back(0);
  }
  data.device_test.push_back(make_separable(8, 700));
  data.device_names.push_back("synthetic");
  const MaterializedPopulation pop(std::move(data));

  LocalTrainConfig cfg;
  cfg.lr = 0.05f;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  FedAvg algo(cfg);
  SimulationConfig sim;
  sim.rounds = 3;
  // One client per round: with a pool, every training batch holds one
  // client, which a pool worker trains on its own replica.
  sim.clients_per_round = 1;
  sim.seed = 31;
  sim.num_threads = num_threads;
  return run_simulation(*model, algo, pop, sim);
}

TEST(SchedDeterminism, OneClientBatchesBitIdenticalAcrossThreadCounts) {
  const SimulationResult serial = run_one_client_sim(1);
  const SimulationResult pooled = run_one_client_sim(4);
  ASSERT_EQ(serial.train_loss_history.size(),
            pooled.train_loss_history.size());
  for (std::size_t t = 0; t < serial.train_loss_history.size(); ++t) {
    EXPECT_EQ(serial.train_loss_history[t], pooled.train_loss_history[t])
        << "round " << t;
  }
  ASSERT_EQ(serial.final_metrics.per_device.size(),
            pooled.final_metrics.per_device.size());
  for (std::size_t i = 0; i < serial.final_metrics.per_device.size(); ++i) {
    EXPECT_EQ(serial.final_metrics.per_device[i],
              pooled.final_metrics.per_device[i]);
  }
  EXPECT_EQ(serial.final_metrics.average, pooled.final_metrics.average);
}


// ------------------------------------------------------- aborted flushes --

TEST(SchedFaults, AbortedFlushesSkipTheModelAndLaterFlushesRecover) {
  SchedulerOptions sched = parse_sched_spec("buffered,buffer=4");
  const FaultOptions faults = parse_fault_spec("drop=0.5,min=3");
  const SchedRun r1 = run_sched(sched, faults, 1, 97, 8);
  // Dropouts count as terminal outcomes, so windows flush at exactly 4 and
  // some fall below the min_clients floor while others commit: a client
  // whose window aborted leaves the model untouched, and the run carries on.
  EXPECT_GT(r1.result.runtime.rounds_aborted, 0u);
  EXPECT_GT(r1.result.runtime.updates_committed, 0u);
  EXPECT_GT(r1.result.runtime.clients_dropped, 0u);
  for (double loss : r1.result.train_loss_history) {
    EXPECT_TRUE(std::isfinite(loss));
  }
  for (std::size_t i = 0; i < r1.state.size(); ++i) {
    ASSERT_TRUE(std::isfinite(r1.state[i])) << "coordinate " << i;
  }
  const SchedRun r4 = run_sched(sched, faults, 4, 97, 8);
  expect_same_sched(r1, r4);
}

TEST(SchedFaults, TotalDurationTimeoutDropsEveryone) {
  // base_compute_s=1.0 over >=12-sample datasets blows a 1s deadline for
  // every client: the deadline covers modeled compute plus straggler delay
  // (retry backoff does not count), so compute alone exceeds it. All
  // flushes abort; the model never moves.
  auto model = tiny_model(40);
  const Tensor before = model->state();
  FedAvg algo(fast_cfg());
  const MaterializedPopulation pop(synthetic_population(8, 41));
  SimulationConfig sim;
  sim.rounds = 3;
  sim.clients_per_round = 4;
  sim.seed = 42;
  sim.num_threads = 2;
  sim.faults = parse_fault_spec("timeout=1");
  sim.sched = parse_sched_spec("buffered,compute=1.0");
  const SimulationResult r = run_simulation(*model, algo, pop, sim);
  EXPECT_EQ(r.runtime.rounds_aborted, 3u);
  EXPECT_EQ(r.runtime.clients_dropped, 3u * 4u);
  EXPECT_EQ(r.runtime.updates_committed, 0u);
  expect_same_state(before, model->state());
}

// ------------------------------------------------- edge groups, memory --

TEST(SchedEdges, EdgeGroupsFoldInEveryScheduledMode) {
  for (const char* spec : {"buffered,buffer=3", "async"}) {
    SCOPED_TRACE(spec);
    auto edge_run = [spec](std::size_t threads, RecordingObserver* rec) {
      auto model = tiny_model(61);
      FedAvg algo(fast_cfg());
      const MaterializedPopulation pop(synthetic_population(8, 62));
      SimulationConfig sim;
      sim.rounds = 6;
      sim.clients_per_round = 4;
      sim.seed = 63;
      sim.num_threads = threads;
      sim.sched = parse_sched_spec(spec);
      sim.edge_groups = 2;
      sim.observer = rec;
      SimulationResult result = run_simulation(*model, algo, pop, sim);
      return SchedRun{std::move(result), model->state()};
    };
    RecordingObserver rec;
    const SchedRun r1 = edge_run(1, &rec);
    const SchedRun r4 = edge_run(4, nullptr);
    expect_same_sched(r1, r4);
    for (double loss : r1.result.train_loss_history) {
      EXPECT_TRUE(std::isfinite(loss));
    }
    ASSERT_EQ(rec.flushes.size(), 6u);
    for (const auto& flush : rec.flushes) {
      EXPECT_EQ(flush.stats.extras.at("net.edges"), 2.0);
    }
  }
}

/// FedAvg whose every update also carries a 1 MiB aux tensor, so a record
/// that keeps its payload shows in the resident set.
class PaddedFedAvg final : public FedAvg {
 public:
  explicit PaddedFedAvg(LocalTrainConfig cfg) : FedAvg(cfg) {}
  ClientUpdate local_update(Model& model, const Tensor& global,
                            std::size_t client_id, const Dataset& data,
                            Rng& client_rng) const override {
    ClientUpdate u =
        FedAvg::local_update(model, global, client_id, data, client_rng);
    u.aux = Tensor({(1u << 20) / sizeof(float)});
    return u;
  }
};

/// VmRSS of this process in KiB, read at every round end.
struct RssObserver : RoundObserver {
  std::vector<double> kib;
  void on_round_end(std::size_t, const RoundStats&) override {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("VmRSS:", 0) == 0) {
        kib.push_back(std::stod(line.substr(6)));
        return;
      }
    }
  }
};

TEST(SchedMemory, QuarantinedPayloadsAreReleasedAtFlush) {
  // corrupt=1 quarantines every update, so every flush aborts. Each
  // flush must still release its members' payloads: the resident set stays
  // O(in-flight), not O(flushes) (64 flushes of 1 MiB updates).
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan quarantines freed memory, so RSS cannot show it";
#endif
  auto model = tiny_model(51);
  PaddedFedAvg algo(fast_cfg());
  const MaterializedPopulation pop(synthetic_population(8, 52));
  RssObserver rss;
  SimulationConfig sim;
  sim.rounds = 64;
  sim.clients_per_round = 4;
  sim.seed = 53;
  sim.num_threads = 1;
  sim.faults = parse_fault_spec("corrupt=1");
  sim.sched = parse_sched_spec("async");
  sim.observer = &rss;
  const SimulationResult r = run_simulation(*model, algo, pop, sim);
  EXPECT_EQ(r.runtime.clients_quarantined, 64u);
  ASSERT_EQ(rss.kib.size(), 64u);
  const double peak = *std::max_element(rss.kib.begin(), rss.kib.end());
  EXPECT_LE(peak - rss.kib.front(), 16.0 * 1024.0)
      << "first " << rss.kib.front() << " KiB, peak " << peak << " KiB";
}

// ------------------------------------------------------ wall vs virtual --

TEST(SchedClocks, SyncRunsSeparateWallFromVirtualTime) {
  // Straggler delays are virtual: they must show up in virtual_seconds
  // (deterministically) and never in the loss math. Two identical runs
  // agree on the virtual clock even though wall clocks differ.
  SchedulerOptions sync;  // default: sync rounds
  const FaultOptions faults = parse_fault_spec("straggle=1,delay=0.25");
  const SchedRun a = run_sched(sync, faults, 2, 77);
  const SchedRun b = run_sched(sync, faults, 2, 77);
  EXPECT_GT(a.result.runtime.virtual_seconds, 0.0);
  EXPECT_EQ(a.result.runtime.virtual_seconds, b.result.runtime.virtual_seconds);
  ASSERT_EQ(a.result.runtime.round_virtual_seconds.size(), 4u);
  for (double v : a.result.runtime.round_virtual_seconds) EXPECT_GT(v, 0.0);
}

TEST(SchedClocks, ScheduledVirtualClockIsDeterministic) {
  SchedulerOptions sched = parse_sched_spec("async,compute=0.01");
  const SchedRun a = run_sched(sched, FaultOptions{}, 1, 11, 6);
  const SchedRun b = run_sched(sched, FaultOptions{}, 4, 11, 6);
  EXPECT_GT(a.result.runtime.virtual_seconds, 0.0);
  EXPECT_EQ(a.result.runtime.virtual_seconds, b.result.runtime.virtual_seconds);
}

// ------------------------------------------------------- observer stream --

TEST(SchedObserver, FlushFramesReconcileVersionsAndVirtualTime) {
  RecordingObserver rec;
  SchedulerOptions sched = parse_sched_spec("async,compute=0.005");
  const FaultOptions faults = parse_fault_spec("straggle=1,delay=0.5");
  run_sched(sched, faults, 2, 202, 6, 4, &rec);

  ASSERT_EQ(rec.flushes.size(), 6u);
  double last_vt = 0.0;
  for (const auto& flush : rec.flushes) {
    // Async flushes per arrival: every window holds exactly one outcome.
    EXPECT_EQ(flush.selected.size(), 1u);
    ASSERT_EQ(flush.clients.size(), 1u);
    const double post_version = flush.stats.extras.at("sched.version");
    const double aborted = flush.stats.extras.count("fault.aborted")
                               ? flush.stats.extras.at("fault.aborted")
                               : 0.0;
    const double pre_version =
        aborted != 0.0 ? post_version : post_version - 1.0;
    const double flush_vt = flush.stats.extras.at("sched.vt");
    for (const ClientObservation& c : flush.clients) {
      EXPECT_TRUE(c.scheduled);
      EXPECT_GT(c.virtual_seconds, 0.0);  // every client straggles
      // Commit timestamps are globally non-decreasing and never pass the
      // flush-time clock.
      EXPECT_GE(c.virtual_time, last_vt);
      EXPECT_LE(c.virtual_time, flush_vt);
      last_vt = c.virtual_time;
      // Staleness is measured against the pre-flush server version.
      EXPECT_EQ(static_cast<double>(c.staleness),
                pre_version - static_cast<double>(c.version));
    }
  }
}

// ------------------------------------------------------------ guard rails --

TEST(SchedGuards, ContinuousRefillNeedsHeadroom) {
  // k == N starves the refill sampler (every client is in flight); the
  // scheduler demands wave sampling for that shape.
  auto model = tiny_model(95);
  FedAvg algo(fast_cfg());
  const MaterializedPopulation pop(synthetic_population(4, 96));
  SimulationConfig sim;
  sim.rounds = 2;
  sim.clients_per_round = 4;
  sim.sched = parse_sched_spec("async");
  EXPECT_THROW(run_simulation(*model, algo, pop, sim), std::invalid_argument);
  sim.sched = parse_sched_spec("async,wave=1");
  EXPECT_NO_THROW(run_simulation(*model, algo, pop, sim));
}

TEST(SchedGuards, ThreadCountAboveTheCapIsRefusedBeforeAnyThreadStarts) {
  // check_simulation_config runs before the scheduler builds its pool, so
  // an absurd count fails here without starting a thread.
  auto model = tiny_model(99);
  FedAvg algo(fast_cfg());
  const MaterializedPopulation pop(synthetic_population(4, 100));
  SimulationConfig sim;
  sim.clients_per_round = 2;
  sim.num_threads = 100000;
  try {
    check_simulation_config(algo, pop, sim);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("num_threads 100000 exceeds the cap "
                                         "of 1024"),
              std::string::npos)
        << e.what();
  }
  sim.num_threads = kMaxSimulationThreads;
  EXPECT_NO_THROW(check_simulation_config(algo, pop, sim));
}

TEST(SchedGuards, OutOfRangeKnobsBuiltInCodeAreRefused) {
  // The spec parsers refuse these values; a config built in code meets the
  // same ranges when the run is checked.
  FedAvg algo(fast_cfg());
  const MaterializedPopulation pop(synthetic_population(4, 101));
  const auto refused = [&](auto edit) {
    SimulationConfig sim;
    sim.clients_per_round = 2;
    edit(sim);
    EXPECT_THROW(check_simulation_config(algo, pop, sim),
                 std::invalid_argument);
  };
  refused([](SimulationConfig& s) { s.faults.dropout_prob = std::nan(""); });
  refused([](SimulationConfig& s) { s.faults.corrupt_prob = 1.5; });
  refused([](SimulationConfig& s) { s.faults.timeout_s = -1.0; });
  refused([](SimulationConfig& s) {
    s.faults.straggler_delay_s = std::numeric_limits<double>::infinity();
  });
  refused([](SimulationConfig& s) { s.sched.mix_alpha = 0.0; });
  refused([](SimulationConfig& s) { s.sched.staleness_exponent = -1.0; });
  refused([](SimulationConfig& s) { s.sched.base_compute_s = -0.5; });
}

TEST(SchedGuards, WaveSamplingRejectsBufferAboveK) {
  // A wave is sampled only after a flush, so a window of more than k
  // terminal outcomes would never fill; run_simulation refuses it up front
  // with a message naming both numbers.
  const MaterializedPopulation pop(synthetic_population(8, 97));
  auto run = [&pop](std::size_t buffer) {
    auto model = tiny_model(98);
    FedAvg algo(fast_cfg());
    SimulationConfig sim;
    sim.rounds = 2;
    sim.clients_per_round = 4;
    sim.sched = parse_sched_spec("buffered,wave=1");
    sim.sched.buffer = buffer;
    return run_simulation(*model, algo, pop, sim);
  };
  try {
    run(5);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("buffer 5 with k 4"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(run(4));
  EXPECT_NO_THROW(run(3));
}

}  // namespace
}  // namespace hetero
