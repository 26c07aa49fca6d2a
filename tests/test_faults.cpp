// Fault-injection layer tests (DESIGN.md §10): deterministic fault plans,
// the one fault rule shared by every mode, partial aggregation, quarantine
// of non-finite updates, the min_clients abort floor, and the bugfix-sweep
// regressions that rode along with the fault work (Ema empty value,
// HeteroSwitch round-0 switching, top-k tie-break, validation-split
// aggregation weight).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fl/algorithm.h"
#include "fl/compression.h"
#include "fl/observer.h"
#include "fl/simulation.h"
#include "hetero/heteroswitch.h"
#include "nn/model_zoo.h"
#include "runtime/faults.h"
#include "runtime/sched/sched_options.h"
#include "util/rng.h"
#include "util/stats.h"

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

SimulationResult run_sim(SplitFederatedAlgorithm& algo,
                         const FaultOptions& faults, std::size_t num_threads,
                         std::uint64_t seed, std::size_t rounds = 5) {
  auto model = tiny_model(seed);
  const MaterializedPopulation pop(synthetic_population(8, 500));
  SimulationConfig sim;
  sim.rounds = rounds;
  sim.clients_per_round = 4;
  sim.seed = seed;
  sim.num_threads = num_threads;
  sim.faults = faults;
  return run_simulation(*model, algo, pop, sim);
}

void expect_same_results(const SimulationResult& a, const SimulationResult& b) {
  ASSERT_EQ(a.train_loss_history.size(), b.train_loss_history.size());
  for (std::size_t t = 0; t < a.train_loss_history.size(); ++t) {
    EXPECT_EQ(a.train_loss_history[t], b.train_loss_history[t]) << "round " << t;
  }
  ASSERT_EQ(a.final_metrics.per_device.size(),
            b.final_metrics.per_device.size());
  for (std::size_t i = 0; i < a.final_metrics.per_device.size(); ++i) {
    EXPECT_EQ(a.final_metrics.per_device[i], b.final_metrics.per_device[i]);
  }
  EXPECT_EQ(a.runtime.clients_dropped, b.runtime.clients_dropped);
  EXPECT_EQ(a.runtime.clients_quarantined, b.runtime.clients_quarantined);
  EXPECT_EQ(a.runtime.clients_straggled, b.runtime.clients_straggled);
  EXPECT_EQ(a.runtime.fault_retries, b.runtime.fault_retries);
  EXPECT_EQ(a.runtime.rounds_aborted, b.runtime.rounds_aborted);
}

/// Records one run's rounds: the selection, every client_end observation
/// and the round_end stats.
struct RoundRecorder : RoundObserver {
  struct Round {
    std::vector<std::size_t> selected;
    std::vector<ClientObservation> clients;
    RoundStats stats;
  };
  std::vector<Round> rounds;

  void on_round_begin(std::size_t,
                      const std::vector<std::size_t>& selected) override {
    rounds.push_back({});
    rounds.back().selected = selected;
  }
  void on_client_end(std::size_t, const ClientObservation& c) override {
    rounds.back().clients.push_back(c);
  }
  void on_round_end(std::size_t, const RoundStats& stats) override {
    rounds.back().stats = stats;
  }
};

/// One sync round of k clients through run_simulation, observed.
SimulationResult run_one_round(Model& model, SplitFederatedAlgorithm& algo,
                               const ClientProvider& pop,
                               const FaultOptions& faults,
                               std::size_t num_threads, std::size_t k,
                               std::uint64_t seed, RoundRecorder& rec) {
  SimulationConfig sim;
  sim.rounds = 1;
  sim.clients_per_round = k;
  sim.seed = seed;
  sim.num_threads = num_threads;
  sim.faults = faults;
  sim.observer = &rec;
  return run_simulation(model, algo, pop, sim);
}

void expect_same_state(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// ------------------------------------------------------------- fault spec --

TEST(FaultSpec, ParsesAllKeys) {
  const FaultOptions o = parse_fault_spec(
      "drop=0.1,fail=0.2,retries=5,backoff=0.01,straggle=0.3,delay=2.5,"
      "timeout=4,corrupt=0.05,min=3,seed=99");
  EXPECT_DOUBLE_EQ(o.dropout_prob, 0.1);
  EXPECT_DOUBLE_EQ(o.fail_prob, 0.2);
  EXPECT_EQ(o.max_retries, 5u);
  EXPECT_DOUBLE_EQ(o.retry_backoff_s, 0.01);
  EXPECT_DOUBLE_EQ(o.straggler_prob, 0.3);
  EXPECT_DOUBLE_EQ(o.straggler_delay_s, 2.5);
  EXPECT_DOUBLE_EQ(o.timeout_s, 4.0);
  EXPECT_DOUBLE_EQ(o.corrupt_prob, 0.05);
  EXPECT_EQ(o.min_clients, 3u);
  EXPECT_EQ(o.seed, 99u);
  EXPECT_TRUE(o.enabled());
}

TEST(FaultSpec, EmptySpecDisablesInjection) {
  const FaultOptions o = parse_fault_spec("");
  EXPECT_FALSE(o.enabled());
  EXPECT_EQ(o.min_clients, 1u);
}

TEST(FaultSpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_fault_spec("bogus=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("drop"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("drop=abc"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("retries=1x"), std::invalid_argument);
  // Integers are digits only: no sign, no leading space.
  EXPECT_THROW(parse_fault_spec("retries=-1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("min=-1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("retries= 3"), std::invalid_argument);
  // Doubles are finite decimals, and each knob stays in its range: nan
  // would turn dropout off silently, 1.5 is no probability.
  for (const char* spec :
       {"drop=nan", "drop=inf", "drop=1.5", "drop=-0.1", "drop= 0.1",
        "drop=0x1p-1", "timeout=-1", "delay=inf", "backoff=-0.5",
        "corrupt=2"}) {
    EXPECT_THROW(parse_fault_spec(spec), std::invalid_argument) << spec;
  }
  EXPECT_NO_THROW(parse_fault_spec("drop=0,fail=1,timeout=0"));
}

// ------------------------------------------------------------- fault plan --

TEST(FaultPlan, DeterministicAcrossInstances) {
  FaultOptions opts = parse_fault_spec(
      "drop=0.3,fail=0.2,straggle=0.4,delay=1.5,corrupt=0.2");
  const FaultPlan a(opts);
  const FaultPlan b(opts);
  for (std::size_t round = 0; round < 6; ++round) {
    for (std::size_t client = 0; client < 10; ++client) {
      const FaultDecision da = a.decide(round, client);
      const FaultDecision db = b.decide(round, client);
      EXPECT_EQ(da.drop, db.drop);
      EXPECT_EQ(da.fail_attempts, db.fail_attempts);
      EXPECT_EQ(da.delay_s, db.delay_s);
      EXPECT_EQ(da.corrupt, db.corrupt);
      EXPECT_EQ(da.corrupt_kind, db.corrupt_kind);
      EXPECT_EQ(da.corrupt_pos, db.corrupt_pos);
    }
  }
}

TEST(FaultPlan, DrawOrderStableAcrossKnobs) {
  // Enabling one fault type must not re-randomize another's decisions: the
  // dropout schedule with corruption on equals the schedule with it off.
  const FaultPlan drop_only(parse_fault_spec("drop=0.3"));
  const FaultPlan drop_and_more(
      parse_fault_spec("drop=0.3,fail=0.5,straggle=0.5,corrupt=0.5"));
  for (std::size_t round = 0; round < 6; ++round) {
    for (std::size_t client = 0; client < 10; ++client) {
      EXPECT_EQ(drop_only.decide(round, client).drop,
                drop_and_more.decide(round, client).drop);
    }
  }
  // And the straggler delays ignore the other knobs too.
  const FaultPlan straggle_only(parse_fault_spec("straggle=0.5,delay=2"));
  const FaultPlan straggle_and_more(
      parse_fault_spec("straggle=0.5,delay=2,drop=0.4,corrupt=0.4"));
  for (std::size_t round = 0; round < 6; ++round) {
    for (std::size_t client = 0; client < 10; ++client) {
      EXPECT_EQ(straggle_only.decide(round, client).delay_s,
                straggle_and_more.decide(round, client).delay_s);
    }
  }
}

TEST(FaultPlan, DecideIsThreadSafe) {
  // decide() is called concurrently from pool workers; under TSan this
  // pins the const-and-thread-safe contract.
  FaultOptions opts = parse_fault_spec("drop=0.2,straggle=0.3,corrupt=0.1");
  const FaultPlan plan(opts);
  constexpr std::size_t kClients = 64;
  std::vector<FaultDecision> serial(kClients);
  for (std::size_t c = 0; c < kClients; ++c) serial[c] = plan.decide(3, c);

  std::vector<FaultDecision> parallel(kClients);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t c = w; c < kClients; c += 4) {
        parallel[c] = plan.decide(3, c);
      }
    });
  }
  for (auto& t : workers) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(serial[c].drop, parallel[c].drop);
    EXPECT_EQ(serial[c].delay_s, parallel[c].delay_s);
    EXPECT_EQ(serial[c].corrupt_pos, parallel[c].corrupt_pos);
  }
}

// ------------------------------------------------- determinism under faults --

TEST(FaultDeterminism, FaultyRunBitIdenticalAcrossThreadCounts) {
  const FaultOptions faults = parse_fault_spec(
      "drop=0.15,fail=0.2,straggle=0.3,delay=0.2,corrupt=0.1");
  FedAvg a1(fast_cfg()), a4(fast_cfg()), a8(fast_cfg());
  const SimulationResult r1 = run_sim(a1, faults, 1, 321);
  const SimulationResult r4 = run_sim(a4, faults, 4, 321);
  const SimulationResult r8 = run_sim(a8, faults, 8, 321);
  // The scenario must actually exercise the fault paths to mean anything.
  EXPECT_GT(r1.runtime.clients_dropped + r1.runtime.clients_quarantined +
                r1.runtime.clients_straggled,
            0u);
  expect_same_results(r1, r4);
  expect_same_results(r1, r8);
}

TEST(FaultDeterminism, StragglerOnlyRunMatchesCleanLossHistory) {
  // Straggler delays are virtual: they shape timing telemetry, never the
  // training math, so the loss history must equal the clean run's.
  FedAvg clean_algo(fast_cfg()), slow_algo(fast_cfg());
  const SimulationResult clean =
      run_sim(clean_algo, FaultOptions{}, 2, 77);
  const SimulationResult slow = run_sim(
      slow_algo, parse_fault_spec("straggle=1,delay=0.25"), 2, 77);
  ASSERT_EQ(clean.train_loss_history.size(), slow.train_loss_history.size());
  for (std::size_t t = 0; t < clean.train_loss_history.size(); ++t) {
    EXPECT_EQ(clean.train_loss_history[t], slow.train_loss_history[t]);
  }
  EXPECT_EQ(slow.runtime.clients_straggled, 5u * 4u);  // every client, every round
  EXPECT_EQ(slow.runtime.clients_dropped, 0u);
}

TEST(FaultDeterminism, CompressedFedAvgSurvivesFaultsAcrossThreadCounts) {
  // Residual bookkeeping must stay aligned when some clients are excluded.
  const FaultOptions faults = parse_fault_spec("drop=0.2,corrupt=0.1");
  CompressionOptions copts;
  CompressedFedAvg c1(fast_cfg(), copts), c4(fast_cfg(), copts);
  const SimulationResult r1 = run_sim(c1, faults, 1, 654);
  const SimulationResult r4 = run_sim(c4, faults, 4, 654);
  expect_same_results(r1, r4);
}

// --------------------------------------------- quarantine + partial rounds --

TEST(FaultInjection, CorruptUpdatesAreQuarantinedAndNeverAggregated) {
  // corrupt=1 poisons every update with NaN/Inf; validate_update must
  // quarantine all of them, aborting the round with the model untouched.
  auto model = tiny_model(10);
  const Tensor before = model->state();
  const MaterializedPopulation pop(synthetic_population(6, 11));
  FedAvg algo(fast_cfg());
  RoundRecorder rec;
  const SimulationResult r = run_one_round(
      *model, algo, pop, parse_fault_spec("corrupt=1"), 4, 3, 12, rec);
  ASSERT_EQ(rec.rounds.size(), 1u);
  const RoundStats& stats = rec.rounds[0].stats;
  EXPECT_EQ(r.runtime.clients_quarantined, 3u);
  EXPECT_EQ(r.runtime.rounds_aborted, 1u);
  EXPECT_EQ(stats.num_clients, 0u);
  EXPECT_EQ(stats.extras.at("fault.quarantined"), 3.0);
  EXPECT_EQ(stats.extras.at("fault.aborted"), 1.0);
  expect_same_state(before, model->state());  // NaN provably excluded
}

TEST(FaultInjection, PartiallyCorruptRoundsKeepTheModelFinite) {
  FedAvg algo(fast_cfg());
  auto model = tiny_model(20);
  const MaterializedPopulation pop(synthetic_population(8, 21));
  SimulationConfig sim;
  sim.rounds = 6;
  sim.clients_per_round = 5;
  sim.seed = 22;
  sim.num_threads = 4;
  sim.faults = parse_fault_spec("corrupt=0.4");
  const SimulationResult r = run_simulation(*model, algo, pop, sim);
  EXPECT_GT(r.runtime.clients_quarantined, 0u);
  const Tensor state = model->state();
  for (std::size_t i = 0; i < state.size(); ++i) {
    ASSERT_TRUE(std::isfinite(state[i])) << "coordinate " << i;
  }
  for (double loss : r.train_loss_history) EXPECT_TRUE(std::isfinite(loss));
}

TEST(FaultInjection, FullDropoutAbortsEveryRoundAndLeavesModelUntouched) {
  auto model = tiny_model(30);
  const Tensor before = model->state();
  FedAvg algo(fast_cfg());
  const MaterializedPopulation pop(synthetic_population(8, 31));
  SimulationConfig sim;
  sim.rounds = 4;
  sim.clients_per_round = 4;
  sim.seed = 32;
  sim.num_threads = 2;
  sim.faults = parse_fault_spec("drop=1");
  const SimulationResult r = run_simulation(*model, algo, pop, sim);
  EXPECT_EQ(r.runtime.rounds_aborted, 4u);
  EXPECT_EQ(r.runtime.clients_dropped, 4u * 4u);
  expect_same_state(before, model->state());
}

TEST(FaultInjection, MinClientsFloorAbortsPartialRounds) {
  // min_clients above the selection size: every round aborts even when
  // some clients survive, and the survivors' stats are still summarized.
  auto model = tiny_model(40);
  const Tensor before = model->state();
  const MaterializedPopulation pop(synthetic_population(6, 41));
  FedAvg algo(fast_cfg());
  RoundRecorder rec;
  const SimulationResult r = run_one_round(
      *model, algo, pop, parse_fault_spec("drop=0.5,min=99"), 1, 5, 42, rec);
  ASSERT_EQ(rec.rounds.size(), 1u);
  const RoundStats& stats = rec.rounds[0].stats;
  EXPECT_EQ(r.runtime.rounds_aborted, 1u);
  EXPECT_EQ(stats.extras.at("fault.aborted"), 1.0);
  EXPECT_EQ(stats.num_clients + r.runtime.clients_dropped, 5u);
  expect_same_state(before, model->state());
}

TEST(FaultInjection, TimeoutDropsSlowStragglers) {
  FedAvg algo(fast_cfg());
  const SimulationResult r = run_sim(
      algo, parse_fault_spec("straggle=1,delay=10,timeout=1"), 2, 50);
  // delay ~ U[0, 20): virtually every straggler blows the 1s deadline.
  EXPECT_GT(r.runtime.clients_dropped, 0u);
  EXPECT_EQ(r.runtime.clients_dropped + r.runtime.clients_straggled +
                r.runtime.rounds_aborted * 0,
            r.runtime.clients_dropped + r.runtime.clients_straggled);
  for (double loss : r.train_loss_history) EXPECT_TRUE(std::isfinite(loss));
}

TEST(FaultInjection, TransientFailuresConsumeRetriesDeterministically) {
  FedAvg a(fast_cfg()), b(fast_cfg());
  const FaultOptions faults = parse_fault_spec("fail=1,retries=3");
  const SimulationResult ra = run_sim(a, faults, 1, 60);
  const SimulationResult rb = run_sim(b, faults, 4, 60);
  EXPECT_GT(ra.runtime.fault_retries, 0u);
  expect_same_results(ra, rb);
}

TEST(FaultInjection, OutcomesReportedPerSelectedClient) {
  auto model = tiny_model(70);
  const MaterializedPopulation pop(synthetic_population(8, 71));
  FedAvg algo(fast_cfg());
  RoundRecorder rec;
  const SimulationResult r =
      run_one_round(*model, algo, pop,
                    parse_fault_spec("drop=0.3,straggle=0.3"), 2, 4, 72, rec);
  ASSERT_EQ(rec.rounds.size(), 1u);
  const std::vector<std::size_t>& selected = rec.rounds[0].selected;
  const std::vector<ClientObservation>& outcomes = rec.rounds[0].clients;
  ASSERT_EQ(outcomes.size(), selected.size());
  std::size_t dropped = 0, straggled = 0;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    EXPECT_EQ(outcomes[i].client_id, selected[i]);
    const auto kind = static_cast<FaultKind>(outcomes[i].fault);
    if (kind == FaultKind::kDropout) ++dropped;
    if (kind == FaultKind::kStraggler) ++straggled;
  }
  EXPECT_EQ(dropped, r.runtime.clients_dropped);
  EXPECT_EQ(straggled, r.runtime.clients_straggled);
}

TEST(FaultInjection, ZeroFaultRunKeepsCountersAndExtrasClean) {
  auto model = tiny_model(80);
  const MaterializedPopulation pop(synthetic_population(6, 81));
  FedAvg algo(fast_cfg());
  RoundRecorder rec;  // default FaultOptions: nothing injected
  const SimulationResult r =
      run_one_round(*model, algo, pop, FaultOptions{}, 2, 3, 82, rec);
  ASSERT_EQ(rec.rounds.size(), 1u);
  const RoundStats& stats = rec.rounds[0].stats;
  EXPECT_EQ(r.runtime.clients_dropped, 0u);
  EXPECT_EQ(r.runtime.clients_quarantined, 0u);
  EXPECT_EQ(r.runtime.rounds_aborted, 0u);
  for (const ClientObservation& c : rec.rounds[0].clients) {
    EXPECT_EQ(c.fault, 0u) << "client " << c.client_id;
  }
  for (const auto& [key, value] : stats.extras) {
    EXPECT_NE(key.rfind("fault.", 0), 0u) << "unexpected extra " << key;
  }
}

// ------------------------------------------------------------ fault rule --

/// The one fault rule (DESIGN.md §10) for a run without modeled compute:
/// dropout; timeout when the straggler delay exceeds the deadline (retry
/// backoff not counted); failure when the retries run out; else ok or
/// straggler.
FaultKind rule_kind(const FaultOptions& o, const FaultDecision& d) {
  if (d.drop) return FaultKind::kDropout;
  if (o.timeout_s > 0.0 && d.delay_s > o.timeout_s) return FaultKind::kTimeout;
  if (d.fail_attempts > o.max_retries) return FaultKind::kFailed;
  return d.delay_s > 0.0 ? FaultKind::kStraggler : FaultKind::kOk;
}

TEST(FaultRule, SyncAndOneWaveBufferedFollowTheSameRule) {
  // Every client fails at least once and straggles. With one retry of 0.3s
  // backoff, delay ~ U[0, 1) and a 0.6s deadline, two corners occur:
  //  (a) delay <= timeout < delay + backoff: the retry succeeds, because
  //      backoff does not count against the deadline;
  //  (b) delay > timeout with the retry used up (backoff 0.3 <= timeout):
  //      a timeout, because the deadline is checked before the retries.
  const FaultOptions faults = parse_fault_spec(
      "fail=1,straggle=1,delay=0.5,retries=1,backoff=0.3,timeout=0.6");
  const FaultPlan plan(faults);
  const MaterializedPopulation pop(synthetic_population(8, 90));
  SchedulerOptions one_wave_buffered = parse_sched_spec("buffered,wave=1");
  one_wave_buffered.buffer = 4;
  for (const SchedulerOptions& sched :
       {SchedulerOptions{}, one_wave_buffered}) {
    SCOPED_TRACE(sched_mode_name(sched.mode));
    auto model = tiny_model(91);
    FedAvg algo(fast_cfg());
    RoundRecorder rec;
    SimulationConfig sim;
    sim.rounds = 8;
    sim.clients_per_round = 4;
    sim.seed = 92;
    sim.num_threads = 2;
    sim.faults = faults;
    sim.sched = sched;
    sim.observer = &rec;
    run_simulation(*model, algo, pop, sim);

    ASSERT_EQ(rec.rounds.size(), 8u);
    std::size_t corner_a = 0, corner_b = 0;
    for (std::size_t round = 0; round < rec.rounds.size(); ++round) {
      ASSERT_EQ(rec.rounds[round].clients.size(), 4u);
      for (const ClientObservation& c : rec.rounds[round].clients) {
        const FaultDecision d = plan.decide(round, c.client_id);
        EXPECT_EQ(c.fault, static_cast<unsigned>(rule_kind(faults, d)))
            << "round " << round << " client " << c.client_id;
        const double backoff =
            total_backoff_seconds(faults, std::min(d.fail_attempts,
                                                   faults.max_retries));
        if (d.fail_attempts <= faults.max_retries &&
            d.delay_s <= faults.timeout_s &&
            faults.timeout_s < d.delay_s + backoff) {
          ++corner_a;
        }
        if (d.delay_s > faults.timeout_s &&
            d.fail_attempts > faults.max_retries &&
            backoff <= faults.timeout_s) {
          ++corner_b;
        }
      }
    }
    EXPECT_GT(corner_a, 0u);
    EXPECT_GT(corner_b, 0u);
  }
}

// -------------------------------------------------------- update validation --

TEST(ValidateUpdate, FlagsNonFiniteFieldsAndTensors) {
  ClientUpdate good;
  good.state = Tensor({4});
  good.weight = 2.0;
  EXPECT_TRUE(validate_update(good));

  ClientUpdate nan_state = good;
  nan_state.state[2] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(validate_update(nan_state));

  ClientUpdate inf_aux = good;
  inf_aux.aux = Tensor({3});
  inf_aux.aux[0] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(validate_update(inf_aux));

  ClientUpdate bad_weight = good;
  bad_weight.weight = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(validate_update(bad_weight));

  ClientUpdate negative_weight = good;
  negative_weight.weight = -1.0;
  EXPECT_FALSE(validate_update(negative_weight));

  ClientUpdate bad_loss = good;
  bad_loss.train_loss = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(validate_update(bad_loss));
}

// ------------------------------------------------- bugfix-sweep regressions --

TEST(Regression, EmaEmptyValueIsConfigurable) {
  Ema default_ema(0.9);
  EXPECT_TRUE(std::isinf(default_ema.value()));  // back-compat default
  Ema zero_empty(0.9, 0.0);
  EXPECT_EQ(zero_empty.value(), 0.0);
  zero_empty.update(3.0);
  EXPECT_EQ(zero_empty.value(), 3.0);
  zero_empty.reset();
  EXPECT_EQ(zero_empty.value(), 0.0);  // empty value survives reset
}

TEST(Regression, TopKTieBreakIsByIndex) {
  // All-equal magnitudes: without the index tie-break the selected set at
  // the k-boundary is whatever nth_element's partition leaves.
  Tensor dense({6}, {1.0f, -1.0f, 1.0f, -1.0f, 1.0f, -1.0f});
  const SparseUpdate sparse = top_k_sparsify(dense, 3);
  ASSERT_EQ(sparse.indices.size(), 3u);
  EXPECT_EQ(sparse.indices[0], 0u);
  EXPECT_EQ(sparse.indices[1], 1u);
  EXPECT_EQ(sparse.indices[2], 2u);
  EXPECT_EQ(sparse.values[0], 1.0f);
  EXPECT_EQ(sparse.values[1], -1.0f);
  EXPECT_EQ(sparse.values[2], 1.0f);
}

TEST(Regression, ValidationSplitWeightUsesFullSampleCount) {
  // Under BiasCriterion::kValidationSplit the aggregation weight must be
  // the client's full dataset size, not the train split's.
  auto model = tiny_model(100);
  const Tensor global = model->state();
  const Dataset data = two_class_data(16, 101);
  HeteroSwitchOptions opts;
  opts.criterion = BiasCriterion::kValidationSplit;
  opts.validation_fraction = 0.25f;
  HeteroSwitch algo(fast_cfg(), opts);
  algo.init(*model, 1);
  Rng rng(102);
  Rng client_rng = rng.fork(0);
  const ClientUpdate u =
      algo.local_update(*model, global, 0, data, client_rng);
  EXPECT_EQ(u.weight, 16.0);  // full size, not 12 (the 75% train split)
}

}  // namespace
}  // namespace hetero
