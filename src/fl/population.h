// Federated population construction: clients, their device assignments, and
// per-device-type test sets.
//
// Device types are assigned to clients by market share (Table 1 /
// Section 4.1) or uniformly; every client's local data is captured with its
// own device's sensor + ISP, so the population exhibits exactly the
// system-induced heterogeneity under study.
//
// Since the ClientProvider redesign (DESIGN.md §12) the single source of
// truth for WHAT a population contains is PopulationSpec + a root Rng; the
// same recipe backs two providers:
//   * VirtualPopulation     — generates any client on demand, O(k) memory;
//   * MaterializedPopulation — the eager pre-PR layout (FlPopulation), with
//     contents produced by the identical recipe, so the two are
//     bit-identical per client for the same (spec, root).
// Every per-client quantity is keyed on the client id via Rng::fork — never
// on build order — which is what makes O(1) random access possible.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "data/builder.h"
#include "data/dataset.h"
#include "device/device_profile.h"
#include "fl/client_provider.h"
#include "scene/flair_gen.h"
#include "scene/scene_gen.h"
#include "util/rng.h"

namespace hetero {

struct FlPopulation {
  std::vector<Dataset> client_train;        ///< one dataset per client
  std::vector<std::size_t> client_device;   ///< device index per client
  std::vector<Dataset> device_test;         ///< held-out set per device type
  std::vector<std::string> device_names;
  /// Relative compute slowdown per device type, derived from the profile's
  /// performance tier (tier_speed_scale; H < M < L). Drives the event
  /// scheduler's DelayModel and, with HS_FAULTS "tiers=1", stretches
  /// injected straggler delays per hardware class. Empty = homogeneous.
  std::vector<double> device_speed_scale;
};

/// How clients are assigned device types.
enum class DeviceAssignment {
  kMarketShare,  ///< proportional to DeviceProfile::market_share
  kUniform,      ///< round-robin over device types
};

struct PopulationConfig {
  std::size_t num_clients = 100;          ///< N
  std::size_t samples_per_client = 24;    ///< local dataset size
  std::size_t test_per_class = 6;         ///< per-device test samples/class
  DeviceAssignment assignment = DeviceAssignment::kMarketShare;
  CaptureConfig capture;
  /// Device types to exclude from *training* clients (leave-one-out DG);
  /// their test sets are still built.
  std::vector<std::size_t> exclude_from_training;
};

/// The unified declarative recipe behind both population kinds. The scene
/// generators are borrowed: the caller keeps them alive for the life of any
/// provider built from the spec.
struct PopulationSpec {
  enum class Kind {
    kSingleLabel,  ///< 12-class scenes, one label per sample
    kFlair,        ///< FLAIR-style multi-label users with preference skew
  };

  Kind kind = Kind::kSingleLabel;
  std::vector<DeviceProfile> devices;
  std::size_t num_clients = 100;
  std::size_t samples_per_client = 24;
  /// Test-set size knob: per-class samples for kSingleLabel (each device
  /// test set holds test_samples * kNumClasses images), total per-device
  /// samples for kFlair.
  std::size_t test_samples = 6;
  DeviceAssignment assignment = DeviceAssignment::kMarketShare;
  CaptureConfig capture;
  /// Honoured by both kinds: excluded devices get no training clients but
  /// keep a test set.
  std::vector<std::size_t> exclude_from_training;
  const SceneGenerator* scenes = nullptr;             ///< kSingleLabel
  const FlairSceneGenerator* flair_scenes = nullptr;  ///< kFlair

  /// Builds a single-label spec from the legacy PopulationConfig knobs.
  static PopulationSpec single_label(std::vector<DeviceProfile> devices,
                                     const PopulationConfig& cfg,
                                     const SceneGenerator& scenes);

  /// Builds a FLAIR-style multi-label spec (market-share device draw,
  /// per-user preference profiles, flat-profile per-device test sets).
  static PopulationSpec flair(std::vector<DeviceProfile> devices,
                              std::size_t num_clients,
                              std::size_t samples_per_client,
                              std::size_t test_per_device,
                              const CaptureConfig& capture,
                              const FlairSceneGenerator& scenes);
};

/// Lazy population: generates any client's (device assignment, scene draws,
/// ISP capture, local dataset) on demand from (spec, root). Memory is
/// O(#devices) for the resident test sets plus whatever slots the caller
/// provides — independent of num_clients. Everything is keyed per client:
///   device assignment   root.fork(kAssignTag, client)
///   single-label data   root.fork(1000 + client)      (legacy keying)
///   FLAIR prefs + data  root.fork(2000 + client)      (legacy keying)
///   device test sets    root.fork(kTestTag(kind), device)
/// so client_dataset(i) is a pure function of (spec, root, i).
class VirtualPopulation final : public ClientProvider {
 public:
  /// Validates the spec and eagerly builds only the O(#devices) parts
  /// (test sets, names, speed scales). `root` is copied; the caller's
  /// stream is not advanced.
  VirtualPopulation(PopulationSpec spec, const Rng& root);

  std::size_t num_clients() const override { return spec_.num_clients; }
  std::size_t device_of(std::size_t client) const override;
  double work_of(std::size_t /*client*/) const override {
    return static_cast<double>(spec_.samples_per_client);
  }
  const Dataset& client_dataset(std::size_t client,
                                ClientSlot& slot) const override;
  const std::vector<Dataset>& device_test() const override {
    return device_test_;
  }
  const std::vector<std::string>& device_names() const override {
    return device_names_;
  }
  const std::vector<double>& device_speed_scale() const override {
    return device_speed_scale_;
  }

  const PopulationSpec& spec() const { return spec_; }

  /// Eagerly runs the recipe for every client into an FlPopulation —
  /// exactly what MaterializedPopulation serves. O(N) memory, by request.
  FlPopulation materialize_all() const;

  /// Cumulative materialization accounting: every client_dataset call runs
  /// the recipe once and counts one materialization. gen_seconds is wall
  /// time inside the recipe.
  bool population_counters(PopulationCounters& out) const override;

 private:
  /// Runs the full recipe for `client` into `slot`. Pure function of
  /// (spec, root, client): the serial draws (class/label-set metadata) come
  /// first, then each image renders from its own fork of the client stream.
  void generate_into(std::size_t client, ClientSlot& slot) const;

  PopulationSpec spec_;
  Rng root_;
  std::vector<double> assign_shares_;  ///< market shares, excluded zeroed
  std::vector<std::size_t> allowed_;   ///< non-excluded devices, in order
  std::vector<Dataset> device_test_;
  std::vector<std::string> device_names_;
  std::vector<double> device_speed_scale_;

  // Counters written by concurrent workers' client_dataset calls.
  mutable std::atomic<std::uint64_t> materializations_{0};
  mutable std::atomic<double> gen_seconds_{0.0};
};

/// Eager population: serves a resident FlPopulation through the provider
/// interface. Construct from a spec (runs the VirtualPopulation recipe for
/// every client) or adopt a built FlPopulation.
class MaterializedPopulation final : public ClientProvider {
 public:
  MaterializedPopulation(const PopulationSpec& spec, const Rng& root);
  explicit MaterializedPopulation(FlPopulation population);

  std::size_t num_clients() const override { return pop_.client_train.size(); }
  std::size_t device_of(std::size_t client) const override {
    return client < pop_.client_device.size() ? pop_.client_device[client] : 0;
  }
  double work_of(std::size_t client) const override {
    return static_cast<double>(pop_.client_train.at(client).size());
  }
  const Dataset& client_dataset(std::size_t client,
                                ClientSlot&) const override {
    return pop_.client_train.at(client);
  }
  const std::vector<Dataset>& device_test() const override {
    return pop_.device_test;
  }
  const std::vector<std::string>& device_names() const override {
    return pop_.device_names;
  }
  const std::vector<double>& device_speed_scale() const override {
    return pop_.device_speed_scale;
  }

 private:
  FlPopulation pop_;
};

/// Factory: eagerly builds the spec'd population (VirtualPopulation's
/// recipe, all clients). The root Rng is copied, never advanced.
FlPopulation make_population(const PopulationSpec& spec, const Rng& root);

}  // namespace hetero
