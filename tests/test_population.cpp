// ClientProvider redesign tests (DESIGN.md §12): VirtualPopulation vs
// MaterializedPopulation bit-equality, slot reuse, lazy accessors, flair
// exclusion, cross-thread determinism of simulations over lazy providers,
// the sparse without-replacement sampler, and checkpoint/resume (sync and
// one-wave buffered runs).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "device/device_profile.h"
#include "fl/checkpoint.h"
#include "fl/population.h"
#include "fl/simulation.h"
#include "nn/model_zoo.h"
#include "scene/flair_gen.h"
#include "scene/scene_gen.h"

namespace hetero {
namespace {

/// Bit-exact float tensor comparison (the provider contract is identity,
/// not closeness).
void expect_tensor_bits(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "at flat index " << i;
  }
}

void expect_dataset_bits(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.is_multi_label(), b.is_multi_label());
  expect_tensor_bits(a.xs(), b.xs());
  if (a.is_multi_label()) {
    expect_tensor_bits(a.multi_targets(), b.multi_targets());
  } else {
    ASSERT_EQ(a.labels(), b.labels());
  }
}

PopulationSpec small_single_label(const SceneGenerator& scenes,
                                  std::size_t num_clients) {
  PopulationConfig cfg;
  cfg.num_clients = num_clients;
  cfg.samples_per_client = 3;
  cfg.test_per_class = 1;
  cfg.capture.tensor_size = 8;
  return PopulationSpec::single_label(paper_devices(), cfg, scenes);
}

std::unique_ptr<Model> tiny_model(std::uint64_t seed) {
  Rng rng(seed);
  ModelSpec spec;
  spec.arch = "mlp-tiny";
  spec.image_size = 8;
  spec.num_classes = 12;
  return make_model(spec, rng);
}

LocalTrainConfig fast_cfg() {
  LocalTrainConfig cfg;
  cfg.lr = 0.05f;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  return cfg;
}

// ------------------------------------------- virtual == materialized --

TEST(VirtualPopulation, MatchesMaterializedSingleLabel) {
  SceneGenerator scenes(16);
  const Rng root = Rng(7).fork(1);
  const PopulationSpec spec = small_single_label(scenes, 30);

  const VirtualPopulation lazy(spec, root);
  const MaterializedPopulation eager(spec, root);
  ASSERT_EQ(lazy.num_clients(), eager.num_clients());

  ClientSlot slot;
  for (std::size_t c = 0; c < lazy.num_clients(); ++c) {
    EXPECT_EQ(lazy.device_of(c), eager.device_of(c)) << "client " << c;
    expect_dataset_bits(lazy.client_dataset(c, slot),
                        eager.client_dataset(c, slot));
  }
  ASSERT_EQ(lazy.device_test().size(), eager.device_test().size());
  for (std::size_t d = 0; d < lazy.device_test().size(); ++d) {
    expect_dataset_bits(lazy.device_test()[d], eager.device_test()[d]);
  }
  EXPECT_EQ(lazy.device_names(), eager.device_names());
  EXPECT_EQ(lazy.device_speed_scale(), eager.device_speed_scale());
}

// ----------------------------------------------------- client-dataset LRU --

TEST(VirtualPopulation, DatasetCacheHitsAreByteIdentical) {
  SceneGenerator scenes(16);
  const Rng root = Rng(13).fork(1);
  const PopulationSpec spec = small_single_label(scenes, 12);

  const VirtualPopulation cached(spec, root);  // default HS_POP_CACHE=64
  ASSERT_GT(cached.cache_capacity(), 0u);

  ClientSlot slot_a, slot_b;
  const Dataset& first = cached.client_dataset(3, slot_a);   // miss
  const Dataset& second = cached.client_dataset(3, slot_b);  // hit: a copy
  EXPECT_EQ(cached.cache_misses(), 1u);
  EXPECT_EQ(cached.cache_hits(), 1u);
  expect_dataset_bits(first, second);

  // The cached copy must match an uncached provider on the same recipe.
  setenv("HS_POP_CACHE", "0", 1);
  const VirtualPopulation uncached(spec, root);
  unsetenv("HS_POP_CACHE");
  EXPECT_EQ(uncached.cache_capacity(), 0u);
  ClientSlot slot_c;
  expect_dataset_bits(second, uncached.client_dataset(3, slot_c));
  // A disabled cache still counts every materialization as a miss, so the
  // hits + misses == materializations identity holds regardless of capacity.
  EXPECT_EQ(uncached.cache_hits(), 0u);
  EXPECT_EQ(uncached.cache_misses(), 1u);

  PopulationCounters counters;
  ASSERT_TRUE(cached.population_counters(counters));
  EXPECT_EQ(counters.materializations, counters.cache_hits +
                                           counters.cache_misses);
  EXPECT_EQ(counters.materializations, 2u);
  EXPECT_GT(counters.gen_seconds, 0.0);
}

TEST(VirtualPopulation, DatasetCacheEvictsLeastRecentlyUsed) {
  setenv("HS_POP_CACHE", "2", 1);
  SceneGenerator scenes(16);
  const Rng root = Rng(17).fork(1);
  const PopulationSpec spec = small_single_label(scenes, 8);
  const VirtualPopulation pop(spec, root);
  unsetenv("HS_POP_CACHE");
  ASSERT_EQ(pop.cache_capacity(), 2u);

  ClientSlot slot;
  pop.client_dataset(0, slot);  // miss        cache {0}
  pop.client_dataset(1, slot);  // miss        cache {1, 0}
  pop.client_dataset(0, slot);  // hit         cache {0, 1}
  pop.client_dataset(2, slot);  // miss        cache {2, 0} — evicts 1
  pop.client_dataset(1, slot);  // miss again: 1 was the LRU victim
  EXPECT_EQ(pop.cache_hits(), 1u);
  EXPECT_EQ(pop.cache_misses(), 4u);

  // Re-materialized after eviction: still byte-identical to the recipe.
  setenv("HS_POP_CACHE", "0", 1);
  const VirtualPopulation plain(spec, root);
  unsetenv("HS_POP_CACHE");
  ClientSlot ref;
  expect_dataset_bits(pop.client_dataset(1, slot),
                      plain.client_dataset(1, ref));
}

TEST(VirtualPopulation, PopCacheEnvStrictlyParsed) {
  setenv("HS_POP_CACHE", "lots", 1);
  SceneGenerator scenes(16);
  const Rng root = Rng(19).fork(1);
  const PopulationSpec spec = small_single_label(scenes, 4);
  EXPECT_THROW(VirtualPopulation(spec, root), std::invalid_argument);
  // 21 digits: past 2^64, so it must be rejected rather than wrap.
  setenv("HS_POP_CACHE", "184467440737095516160", 1);
  EXPECT_THROW(VirtualPopulation(spec, root), std::invalid_argument);
  unsetenv("HS_POP_CACHE");
}

TEST(VirtualPopulation, MatchesMaterializedFlair) {
  FlairSceneGenerator scenes(16);
  CaptureConfig capture;
  capture.tensor_size = 8;
  const Rng root = Rng(11).fork(1);
  const PopulationSpec spec =
      PopulationSpec::flair(paper_devices(), 12, 4, 6, capture, scenes);

  const VirtualPopulation lazy(spec, root);
  const MaterializedPopulation eager(spec, root);

  ClientSlot slot;
  for (std::size_t c = 0; c < lazy.num_clients(); ++c) {
    EXPECT_EQ(lazy.device_of(c), eager.device_of(c)) << "client " << c;
    const Dataset& a = lazy.client_dataset(c, slot);
    ASSERT_TRUE(a.is_multi_label());
    expect_dataset_bits(a, eager.client_dataset(c, slot));
  }
  for (std::size_t d = 0; d < lazy.device_test().size(); ++d) {
    expect_dataset_bits(lazy.device_test()[d], eager.device_test()[d]);
  }
}

TEST(VirtualPopulation, RandomAccessIsOrderIndependent) {
  // Client i's data is a pure function of (spec, root, i): reading clients
  // out of order, repeatedly, through one recycled slot changes nothing.
  SceneGenerator scenes(16);
  const Rng root = Rng(21).fork(1);
  const VirtualPopulation pop(small_single_label(scenes, 10), root);

  ClientSlot fresh_a, fresh_b, reused;
  const Dataset copy3 = pop.client_dataset(3, fresh_a);  // owned copies
  const Dataset copy7 = pop.client_dataset(7, fresh_b);
  // Interleave through one slot: 7, 3, 7 — each materialization recycles
  // the previous client's buffers.
  expect_dataset_bits(pop.client_dataset(7, reused), copy7);
  expect_dataset_bits(pop.client_dataset(3, reused), copy3);
  expect_dataset_bits(pop.client_dataset(7, reused), copy7);
}

TEST(VirtualPopulation, AccessorsAreConsistent) {
  SceneGenerator scenes(16);
  const Rng root = Rng(31).fork(1);
  const PopulationSpec spec = small_single_label(scenes, 25);
  const VirtualPopulation pop(spec, root);

  const std::vector<double>& scale = pop.device_speed_scale();
  for (std::size_t c = 0; c < pop.num_clients(); ++c) {
    const std::size_t dev = pop.device_of(c);
    ASSERT_LT(dev, pop.device_names().size());
    EXPECT_EQ(pop.work_of(c),
              static_cast<double>(spec.samples_per_client));
    const double expected =
        scale.empty() ? 1.0 : (dev < scale.size() ? scale[dev] : 1.0);
    EXPECT_EQ(pop.speed_scale_of(c), expected);
  }
  EXPECT_EQ(pop.dataset_vector(), nullptr);  // lazy: no resident vector
  ClientSlot slot;
  EXPECT_THROW(pop.client_dataset(pop.num_clients(), slot),
               std::invalid_argument);
}

// -------------------------------------------------- exclusion (flair) --

TEST(VirtualPopulation, FlairHonorsExclusion) {
  FlairSceneGenerator scenes(16);
  CaptureConfig capture;
  capture.tensor_size = 8;
  PopulationSpec spec =
      PopulationSpec::flair(paper_devices(), 40, 2, 4, capture, scenes);
  const std::size_t excluded = device_index("GalaxyS6");
  spec.exclude_from_training = {excluded};

  const Rng root = Rng(41).fork(1);
  const VirtualPopulation pop(spec, root);
  for (std::size_t c = 0; c < pop.num_clients(); ++c) {
    EXPECT_NE(pop.device_of(c), excluded);
  }
  // The excluded device keeps its test set (it is the DG target).
  ASSERT_EQ(pop.device_test().size(), paper_devices().size());
  EXPECT_FALSE(pop.device_test()[excluded].empty());
}

TEST(VirtualPopulation, AllDevicesExcludedThrows) {
  SceneGenerator scenes(16);
  PopulationSpec spec = small_single_label(scenes, 10);
  spec.exclude_from_training.clear();
  for (std::size_t d = 0; d < spec.devices.size(); ++d) {
    spec.exclude_from_training.push_back(d);
  }
  EXPECT_THROW(VirtualPopulation(spec, Rng(1)), std::invalid_argument);
}

// ------------------------------------------------ simulation parity --

SimulationResult run_sim(Model& model, SplitFederatedAlgorithm& algo,
                         const ClientProvider& pop, std::size_t rounds,
                         std::size_t threads,
                         const CheckpointOptions& ckpt = {}) {
  SimulationConfig sim;
  sim.rounds = rounds;
  sim.clients_per_round = 4;
  sim.seed = 99;
  sim.num_threads = threads;
  sim.checkpoint = ckpt;
  return run_simulation(model, algo, pop, sim);
}

TEST(VirtualPopulation, SimulationMatchesMaterializedAndThreads) {
  SceneGenerator scenes(16);
  const Rng root = Rng(51).fork(1);
  const PopulationSpec spec = small_single_label(scenes, 16);
  const VirtualPopulation lazy(spec, root);
  const MaterializedPopulation eager(spec, root);

  FedAvg a1(fast_cfg()), a2(fast_cfg()), a3(fast_cfg());
  auto m1 = tiny_model(5), m2 = tiny_model(5), m3 = tiny_model(5);
  const SimulationResult r1 = run_sim(*m1, a1, lazy, 3, 1);
  const SimulationResult r2 = run_sim(*m2, a2, eager, 3, 1);
  const SimulationResult r3 = run_sim(*m3, a3, lazy, 3, 4);

  // Lazy == eager, and lazy at 4 threads == lazy at 1 thread, bit-for-bit.
  EXPECT_EQ(r1.train_loss_history, r2.train_loss_history);
  EXPECT_EQ(r1.train_loss_history, r3.train_loss_history);
  expect_tensor_bits(m1->state(), m2->state());
  expect_tensor_bits(m1->state(), m3->state());
  EXPECT_EQ(r1.final_metrics.per_device, r2.final_metrics.per_device);
  EXPECT_EQ(r1.final_metrics.per_device, r3.final_metrics.per_device);
}

// -------------------------------------------------- checkpoint/resume --

TEST(Checkpoint, SpecParsing) {
  CheckpointOptions opts = parse_checkpoint_spec("/tmp/ck,every=5,resume=0");
  EXPECT_EQ(opts.dir, "/tmp/ck");
  EXPECT_EQ(opts.every, 5u);
  EXPECT_FALSE(opts.resume);
  EXPECT_TRUE(opts.enabled());
  EXPECT_EQ(checkpoint_path(opts), "/tmp/ck/checkpoint.bin");

  opts = parse_checkpoint_spec("ckdir");
  EXPECT_EQ(opts.dir, "ckdir");
  EXPECT_EQ(opts.every, 1u);
  EXPECT_TRUE(opts.resume);

  EXPECT_THROW(parse_checkpoint_spec(""), std::runtime_error);
  EXPECT_THROW(parse_checkpoint_spec("dir,every=0"), std::runtime_error);
  EXPECT_THROW(parse_checkpoint_spec("dir,bogus=1"), std::runtime_error);
  EXPECT_THROW(parse_checkpoint_spec("dir,every=-1"), std::runtime_error);
  EXPECT_THROW(parse_checkpoint_spec("dir,every=5x"), std::runtime_error);
  EXPECT_THROW(parse_checkpoint_spec("dir,resume=yes"), std::runtime_error);
  try {
    parse_checkpoint_spec("dir,every=abc");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("every"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, ResumeIsBitIdentical) {
  SceneGenerator scenes(16);
  const Rng root = Rng(61).fork(1);
  const PopulationSpec spec = small_single_label(scenes, 12);
  const VirtualPopulation pop(spec, root);

  // FedAvgM carries cross-round server state (velocity), so this exercises
  // algorithm save_state/load_state, not just the model + RNG cursor.
  const std::string dir =
      ::testing::TempDir() + "hs_ckpt_resume_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::remove((dir + "/checkpoint.bin").c_str());

  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.every = 1;

  // Uninterrupted reference: 6 rounds, no checkpointing.
  FedAvgM ref_algo(fast_cfg(), 0.9f);
  auto ref_model = tiny_model(8);
  const SimulationResult ref = run_sim(*ref_model, ref_algo, pop, 6, 1);

  // Interrupted run: 3 rounds with checkpointing, then a FRESH model +
  // algorithm resumed from the file for the full 6.
  {
    FedAvgM algo(fast_cfg(), 0.9f);
    auto model = tiny_model(8);
    run_sim(*model, algo, pop, 3, 1, ckpt);
  }
  FedAvgM algo(fast_cfg(), 0.9f);
  auto model = tiny_model(8);
  const SimulationResult resumed = run_sim(*model, algo, pop, 6, 1, ckpt);

  EXPECT_EQ(ref.train_loss_history, resumed.train_loss_history);
  expect_tensor_bits(ref_model->state(), model->state());
  EXPECT_EQ(ref.final_metrics.per_device, resumed.final_metrics.per_device);

  // A mismatched configuration must refuse the checkpoint.
  FedAvgM other(fast_cfg(), 0.9f);
  auto other_model = tiny_model(8);
  SimulationConfig bad;
  bad.rounds = 6;
  bad.clients_per_round = 5;  // differs from the checkpointed 4
  bad.seed = 99;
  bad.checkpoint = ckpt;
  EXPECT_THROW(run_simulation(*other_model, other, pop, bad),
               std::invalid_argument);

  std::remove((dir + "/checkpoint.bin").c_str());
}

TEST(Checkpoint, RejectedUnderScheduledModes) {
  SceneGenerator scenes(16);
  const VirtualPopulation pop(small_single_label(scenes, 8), Rng(71).fork(1));
  FedAvg algo(fast_cfg());
  auto model = tiny_model(9);
  SimulationConfig sim;
  sim.rounds = 2;
  sim.clients_per_round = 2;
  sim.sched.mode = SchedMode::kAsync;
  sim.checkpoint.dir = ::testing::TempDir() + "hs_ckpt_sched";
  EXPECT_THROW(run_simulation(*model, algo, pop, sim),
               std::invalid_argument);
}

TEST(Checkpoint, ZeroPeriodRejected) {
  // The HS_CHECKPOINT parser refuses every=0; a config built in code (or
  // from hsctl's --ckpt-every) must be refused too, not divide by zero
  // after the first flush.
  SceneGenerator scenes(16);
  const VirtualPopulation pop(small_single_label(scenes, 8), Rng(73).fork(1));
  FedAvg algo(fast_cfg());
  auto model = tiny_model(10);
  SimulationConfig sim;
  sim.rounds = 2;
  sim.clients_per_round = 2;
  sim.checkpoint.dir = ::testing::TempDir() + "hs_ckpt_every0";
  sim.checkpoint.every = 0;
  EXPECT_THROW(run_simulation(*model, algo, pop, sim),
               std::invalid_argument);
}

/// Records the extras of every round_end.
struct ExtrasRecorder : RoundObserver {
  std::vector<std::map<std::string, double>> extras;
  void on_round_end(std::size_t, const RoundStats& stats) override {
    extras.push_back(stats.extras);
  }
};

TEST(Checkpoint, OneWaveBufferedRunResumesBitIdentically) {
  // Buffered wave sampling with buffer == k flushes exactly one wave, so a
  // flush leaves no client in flight and the run checkpoints like sync:
  // the resumed run continues the scheduler's clock and server version.
  SceneGenerator scenes(16);
  const VirtualPopulation pop(small_single_label(scenes, 12),
                              Rng(81).fork(1));
  const std::string dir =
      ::testing::TempDir() + "hs_ckpt_one_wave_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::remove((dir + "/checkpoint.bin").c_str());
  CheckpointOptions ckpt;
  ckpt.dir = dir;

  struct Run {
    SimulationResult result;
    Tensor state;
  };
  auto run = [&pop](std::size_t rounds, const CheckpointOptions& c,
                    RoundObserver* observer) {
    auto model = tiny_model(84);
    FedAvg algo(fast_cfg());
    SimulationConfig sim;
    sim.rounds = rounds;
    sim.clients_per_round = 4;
    sim.seed = 83;
    sim.num_threads = 2;
    sim.sched = parse_sched_spec("buffered,wave=1,compute=0.01");
    sim.faults = parse_fault_spec("drop=0.2,straggle=0.5,delay=0.3");
    sim.checkpoint = c;
    sim.observer = observer;
    SimulationResult result = run_simulation(*model, algo, pop, sim);
    return Run{std::move(result), model->state()};
  };

  ExtrasRecorder ref_rounds, resumed_rounds;
  const Run ref = run(6, {}, &ref_rounds);
  run(3, ckpt, nullptr);
  const Run resumed = run(6, ckpt, &resumed_rounds);

  EXPECT_EQ(ref.result.train_loss_history, resumed.result.train_loss_history);
  expect_tensor_bits(ref.state, resumed.state);
  const RuntimeStats& a = ref.result.runtime;
  const RuntimeStats& b = resumed.result.runtime;
  EXPECT_GT(a.virtual_seconds, 0.0);
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.round_virtual_seconds, b.round_virtual_seconds);
  EXPECT_EQ(a.clients_dropped, b.clients_dropped);
  EXPECT_EQ(a.clients_dispatched, b.clients_dispatched);
  EXPECT_EQ(a.updates_committed, b.updates_committed);
  ASSERT_EQ(ref_rounds.extras.size(), 6u);
  ASSERT_EQ(resumed_rounds.extras.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (const char* key : {"sched.vt", "sched.version"}) {
      EXPECT_EQ(ref_rounds.extras[3 + i].at(key),
                resumed_rounds.extras[i].at(key))
          << key << " after round " << 3 + i;
    }
  }
  std::remove((dir + "/checkpoint.bin").c_str());
}

// --------------------------------------------------- sparse sampling --

TEST(Rng, SparseSampleWithoutReplacementAtMillionScale) {
  // k << N takes the rejection path: O(k) memory, no O(N) index pool.
  Rng rng(123);
  const auto sample = rng.sample_without_replacement(1'000'000, 50);
  ASSERT_EQ(sample.size(), 50u);
  std::set<std::size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 50u);
  for (std::size_t s : sample) EXPECT_LT(s, 1'000'000u);

  Rng rng2(123);
  EXPECT_EQ(rng2.sample_without_replacement(1'000'000, 50), sample);
}

}  // namespace
}  // namespace hetero
