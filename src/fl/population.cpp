#include "fl/population.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "runtime/sched/delay_model.h"
#include "util/config.h"
#include "util/rng.h"

namespace hetero {
namespace {

// Per-client and per-device stream keys (DESIGN.md §12). Data streams keep
// the legacy single-tag forks (fork(1000 + i) / fork(2000 + i)) so client
// contents survive the redesign; the device assignment and the test sets
// use two-key forks, whose streams are decorrelated from every single-tag
// stream — at million-client scale `1000 + i` would otherwise collide with
// a test tag.
constexpr std::uint64_t kAssignTag = 0xA551;          // (kAssignTag, client)
constexpr std::uint64_t kSingleDataBase = 1000;       // 1000 + client
constexpr std::uint64_t kFlairDataBase = 2000;        // 2000 + client
constexpr std::uint64_t kSingleTestTag = 0x7E5701;    // (kSingleTestTag, dev)
constexpr std::uint64_t kFlairTestTag = 0x7E5702;     // (kFlairTestTag, dev)
// Per-image render stream inside one client: forked off the client stream
// AFTER its serial metadata draws, keyed on the image index. Part of the
// dataset stream layout (DESIGN.md §15): an image's bytes depend only on
// (client stream state, i).
constexpr std::uint64_t kImageTag = 0x1316E;          // (kImageTag, image)

void check_spec(const PopulationSpec& spec) {
  HS_CHECK(!spec.devices.empty(), "PopulationSpec: no devices");
  HS_CHECK(spec.num_clients > 0, "PopulationSpec: no clients");
  if (spec.kind == PopulationSpec::Kind::kSingleLabel) {
    HS_CHECK(spec.scenes != nullptr, "PopulationSpec: scenes required");
  } else {
    HS_CHECK(spec.flair_scenes != nullptr,
             "PopulationSpec: flair_scenes required");
  }
}

/// HS_POP_CACHE: LRU capacity in clients (default 64, 0 disables). Strict:
/// a set-but-malformed value throws instead of silently running uncached.
std::size_t pop_cache_capacity_from_env() {
  const auto v = env_string("HS_POP_CACHE");
  if (!v) return 64;
  const std::optional<std::uint64_t> parsed = parse_uint(*v);
  if (!parsed) {
    throw std::invalid_argument("HS_POP_CACHE: invalid capacity '" + *v +
                                "' (expected a non-negative integer)");
  }
  return static_cast<std::size_t>(*parsed);
}

}  // namespace

PopulationSpec PopulationSpec::single_label(std::vector<DeviceProfile> devices,
                                            const PopulationConfig& cfg,
                                            const SceneGenerator& scenes) {
  PopulationSpec spec;
  spec.kind = Kind::kSingleLabel;
  spec.devices = std::move(devices);
  spec.num_clients = cfg.num_clients;
  spec.samples_per_client = cfg.samples_per_client;
  spec.test_samples = cfg.test_per_class;
  spec.assignment = cfg.assignment;
  spec.capture = cfg.capture;
  spec.exclude_from_training = cfg.exclude_from_training;
  spec.scenes = &scenes;
  return spec;
}

PopulationSpec PopulationSpec::flair(std::vector<DeviceProfile> devices,
                                     std::size_t num_clients,
                                     std::size_t samples_per_client,
                                     std::size_t test_per_device,
                                     const CaptureConfig& capture,
                                     const FlairSceneGenerator& scenes) {
  PopulationSpec spec;
  spec.kind = Kind::kFlair;
  spec.devices = std::move(devices);
  spec.num_clients = num_clients;
  spec.samples_per_client = samples_per_client;
  spec.test_samples = test_per_device;
  spec.assignment = DeviceAssignment::kMarketShare;
  spec.capture = capture;
  spec.flair_scenes = &scenes;
  return spec;
}

VirtualPopulation::VirtualPopulation(PopulationSpec spec, const Rng& root)
    : spec_(std::move(spec)),
      root_(root),
      cache_capacity_(pop_cache_capacity_from_env()) {
  check_spec(spec_);
  const std::size_t num_devices = spec_.devices.size();
  auto excluded = [&](std::size_t dev) {
    return std::find(spec_.exclude_from_training.begin(),
                     spec_.exclude_from_training.end(),
                     dev) != spec_.exclude_from_training.end();
  };

  // Assignment tables: zeroed shares for excluded devices (market share) and
  // the ordered non-excluded device list (uniform round-robin). Zeroing is
  // distributionally identical to the old draw-and-retry loop, but needs
  // one categorical draw per client instead of a data-dependent count.
  assign_shares_.reserve(num_devices);
  double total_share = 0.0;
  for (std::size_t d = 0; d < num_devices; ++d) {
    const double share = excluded(d) ? 0.0 : spec_.devices[d].market_share;
    assign_shares_.push_back(share);
    total_share += share > 0.0 ? share : 0.0;
    if (!excluded(d)) allowed_.push_back(d);
  }
  HS_CHECK(!allowed_.empty(),
           "VirtualPopulation: all devices excluded from training");
  if (spec_.assignment == DeviceAssignment::kMarketShare) {
    // categorical() treats an all-zero weight vector as uniform, which
    // would silently re-admit excluded devices.
    HS_CHECK(total_share > 0.0,
             "VirtualPopulation: no market share left after exclusions");
  }

  device_names_.reserve(num_devices);
  for (const DeviceProfile& d : spec_.devices) device_names_.push_back(d.name);
  device_speed_scale_ = device_speed_scales(spec_.devices);

  // Per-device test sets: resident (O(#devices)), disjoint streams.
  device_test_.reserve(num_devices);
  if (spec_.kind == PopulationSpec::Kind::kSingleLabel) {
    for (std::size_t d = 0; d < num_devices; ++d) {
      Rng test_rng = root_.fork(kSingleTestTag, d);
      device_test_.push_back(build_device_dataset(spec_.devices[d],
                                                  spec_.test_samples,
                                                  *spec_.scenes, spec_.capture,
                                                  test_rng));
    }
  } else {
    // Flat label profile (no user skew) so per-device AP differences
    // isolate the device effect.
    const std::vector<double> flat(FlairSceneGenerator::kNumLabels,
                                   1.0 / FlairSceneGenerator::kNumLabels);
    for (std::size_t d = 0; d < num_devices; ++d) {
      Rng test_rng = root_.fork(kFlairTestTag, d);
      device_test_.push_back(build_flair_user_dataset(
          spec_.devices[d], flat, spec_.test_samples, *spec_.flair_scenes,
          spec_.capture, test_rng));
    }
  }
}

std::size_t VirtualPopulation::device_of(std::size_t client) const {
  HS_CHECK(client < spec_.num_clients, "VirtualPopulation: bad client id");
  if (spec_.assignment == DeviceAssignment::kUniform) {
    // Cyclic walk of the non-excluded devices — the same sequence the old
    // round-robin-with-retries cursor produced.
    return allowed_[client % allowed_.size()];
  }
  Rng assign_rng = root_.fork(kAssignTag, client);
  return assign_rng.categorical(assign_shares_);
}

const Dataset& VirtualPopulation::client_dataset(std::size_t client,
                                                 ClientSlot& slot) const {
  HS_CHECK(client < spec_.num_clients, "VirtualPopulation: bad client id");
  if (cache_capacity_ > 0) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    const auto it = cache_index_.find(client);
    if (it != cache_index_.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
      // Copy while holding the lock: a later insert may evict this entry,
      // so the caller must never see a reference into the list.
      slot.data = it->second->data;
      return slot.data;
    }
  }
  // Every non-hit call is one miss — also with the cache disabled, so
  // hits + misses == materializations holds unconditionally.
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  generate_into(client, slot);
  if (cache_capacity_ > 0) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_index_.find(client) == cache_index_.end()) {
      cache_lru_.push_front(CacheEntry{client, slot.data});
      cache_index_[client] = cache_lru_.begin();
      if (cache_lru_.size() > cache_capacity_) {
        cache_index_.erase(cache_lru_.back().client);
        cache_lru_.pop_back();
      }
    }
    // A racing worker may have inserted the same client while we generated;
    // both produced identical bytes (pure function of (spec, root, id)), so
    // keeping the first insert is correct.
  }
  return slot.data;
}

std::uint64_t VirtualPopulation::cache_hits() const {
  return cache_hits_.load(std::memory_order_relaxed);
}

std::uint64_t VirtualPopulation::cache_misses() const {
  return cache_misses_.load(std::memory_order_relaxed);
}

bool VirtualPopulation::population_counters(PopulationCounters& out) const {
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  out.materializations = out.cache_hits + out.cache_misses;
  out.gen_seconds = gen_seconds_.load(std::memory_order_relaxed);
  return true;
}

void VirtualPopulation::generate_into(std::size_t client,
                                      ClientSlot& slot) const {
  const auto t0 = std::chrono::steady_clock::now();
  const DeviceProfile& device = spec_.devices[device_of(client)];
  const std::size_t n = spec_.samples_per_client;

  // Recycle the slot's buffers (Workspace arena idiom): reclaim them from
  // the previously materialized dataset, reallocate only on a geometry
  // change, and hand them back to a fresh Dataset below.
  slot.data.release_buffers(slot.xs, slot.labels, slot.targets);

  if (spec_.kind == PopulationSpec::Kind::kSingleLabel) {
    const CaptureConfig& cap = spec_.capture;
    const std::size_t side =
        cap.raw_mode ? cap.raw_tensor_size : cap.tensor_size;
    const std::size_t channels = cap.raw_mode ? 4 : 3;
    const std::vector<std::size_t> shape = {n, channels, side, side};
    if (slot.xs.shape() != shape) slot.xs = Tensor(shape);
    slot.labels.assign(n, 0);
    Rng rng = root_.fork(kSingleDataBase + client);
    // Serial metadata pass: one class draw per image, in image order.
    for (std::size_t i = 0; i < n; ++i) {
      slot.labels[i] = rng.uniform_int(SceneGenerator::kNumClasses);
    }
    for (std::size_t i = 0; i < n; ++i) {
      Rng img_rng = rng.fork(kImageTag, i);
      const Image scene = spec_.scenes->generate(slot.labels[i], img_rng);
      slot.xs.set_slice0(i, capture_to_tensor(scene, device, cap, img_rng));
    }
    slot.data = Dataset(std::move(slot.xs), std::move(slot.labels));
  } else {
    // Preferences from the client stream, then per-image label set + scene
    // + capture from the image stream.
    HS_CHECK(!spec_.capture.raw_mode,
             "VirtualPopulation: RAW mode not supported for FLAIR");
    const std::size_t side = spec_.capture.tensor_size;
    const std::vector<std::size_t> shape = {n, 3, side, side};
    const std::vector<std::size_t> tshape = {n,
                                             FlairSceneGenerator::kNumLabels};
    if (slot.xs.shape() != shape) slot.xs = Tensor(shape);
    if (slot.targets.shape() != tshape) {
      slot.targets = Tensor(tshape);
    } else {
      slot.targets.zero();
    }
    Rng rng = root_.fork(kFlairDataBase + client);
    const std::vector<double> prefs =
        spec_.flair_scenes->sample_user_preferences(rng);
    for (std::size_t i = 0; i < n; ++i) {
      Rng img_rng = rng.fork(kImageTag, i);
      const auto label_set =
          spec_.flair_scenes->sample_label_set(prefs, img_rng);
      const Image scene = spec_.flair_scenes->generate(label_set, img_rng);
      slot.xs.set_slice0(
          i, capture_to_tensor(scene, device, spec_.capture, img_rng));
      for (std::size_t l : label_set) slot.targets.at(i, l) = 1.0f;
    }
    slot.data = Dataset(std::move(slot.xs), std::move(slot.targets));
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  gen_seconds_.fetch_add(dt.count(), std::memory_order_relaxed);
}

FlPopulation VirtualPopulation::materialize_all() const {
  FlPopulation pop;
  pop.device_names = device_names_;
  pop.device_speed_scale = device_speed_scale_;
  pop.device_test = device_test_;
  pop.client_device.reserve(spec_.num_clients);
  pop.client_train.reserve(spec_.num_clients);
  for (std::size_t i = 0; i < spec_.num_clients; ++i) {
    pop.client_device.push_back(device_of(i));
    ClientSlot slot;
    // Bypasses the LRU: a one-shot full sweep would only churn it (and pay
    // one extra Dataset copy per client).
    generate_into(i, slot);
    pop.client_train.push_back(std::move(slot.data));
  }
  return pop;
}

MaterializedPopulation::MaterializedPopulation(const PopulationSpec& spec,
                                               const Rng& root)
    : pop_(VirtualPopulation(spec, root).materialize_all()) {}

MaterializedPopulation::MaterializedPopulation(FlPopulation population)
    : pop_(std::move(population)) {}

FlPopulation make_population(const PopulationSpec& spec, const Rng& root) {
  return VirtualPopulation(spec, root).materialize_all();
}

}  // namespace hetero
