// ClientProvider: the lazy population interface behind run_simulation and
// the event scheduler (DESIGN.md §12).
//
// A provider answers "who is client i and what data does it hold" without
// prescribing HOW the answer is produced. MaterializedPopulation serves a
// resident FlPopulation (the eager pre-PR layout); VirtualPopulation
// regenerates any client on demand from a seeded recipe, so a 1M-client
// population costs O(k) memory per round instead of O(N). Both are
// interchangeable: for the same spec and root Rng they produce bit-identical
// datasets per client, asserted in tests/test_population.cpp.
//
// Materialization writes into a caller-owned ClientSlot (one per worker
// thread), which recycles the previous client's buffers — the kernels
// Workspace arena idiom applied one level up — so steady-state allocations
// during a round are flat in both N and the number of rounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace hetero {

/// Reusable materialization arena. `data` holds the most recently
/// materialized dataset; `xs` / `labels` / `targets` are the spare buffers
/// the next materialization recycles (release_buffers moves them back out
/// of `data` first). Providers that serve resident datasets ignore the slot
/// entirely. A slot must not be shared between concurrent materializations;
/// the scheduler keeps one per worker.
struct ClientSlot {
  Dataset data;
  Tensor xs;
  std::vector<std::size_t> labels;
  Tensor targets;
};

/// Cumulative materialization counters a lazy provider may expose (see
/// ClientProvider::population_counters). Invariant for providers that
/// report them: every client_dataset call is exactly one materialization
/// and resolves as exactly one cache hit or one miss, so
/// hits + misses == materializations at every instant — the scheduler
/// stamps per-round deltas as pop.* round extras and tools/trace_check.cpp
/// re-validates the identity per round.
struct PopulationCounters {
  std::uint64_t materializations = 0;  ///< client_dataset calls served
  std::uint64_t cache_hits = 0;        ///< served from the dataset LRU
  std::uint64_t cache_misses = 0;      ///< ran the generation recipe
  double gen_seconds = 0.0;            ///< wall time inside the recipe
};

/// Abstract population: per-client device assignment, work size, and
/// (possibly lazily generated) local datasets, plus the per-device-type
/// held-out test sets.
///
/// Thread-safety contract: every const member must be pure with respect to
/// shared state — client_dataset may only write through the caller's slot —
/// because the scheduler calls these concurrently from worker
/// threads (DESIGN.md §7 extends to materialization).
class ClientProvider {
 public:
  virtual ~ClientProvider() = default;

  /// Population size N.
  virtual std::size_t num_clients() const = 0;

  /// Device-type index of client i (into device_names / device_test).
  virtual std::size_t device_of(std::size_t client) const = 0;

  /// Work units of client i (its local dataset size), feeding the event
  /// scheduler's DelayModel without materializing the dataset.
  virtual double work_of(std::size_t client) const = 0;

  /// Client i's local dataset. Lazy providers materialize into `slot` and
  /// return a reference into it (valid until the slot's next use); eager
  /// providers return the resident dataset and leave the slot untouched.
  virtual const Dataset& client_dataset(std::size_t client,
                                        ClientSlot& slot) const = 0;

  /// Held-out test set per device type (always resident; O(#devices)).
  virtual const std::vector<Dataset>& device_test() const = 0;
  virtual const std::vector<std::string>& device_names() const = 0;

  /// Relative compute slowdown per device type (see
  /// FlPopulation::device_speed_scale). Empty = homogeneous.
  virtual const std::vector<double>& device_speed_scale() const = 0;

  /// Per-client compute slowdown: device_speed_scale through device_of.
  /// Pure and thread-safe; this is what FaultOptions::delay_scale_fn and
  /// the DelayModel consult instead of O(N) per-client vectors.
  double speed_scale_of(std::size_t client) const {
    const std::vector<double>& scale = device_speed_scale();
    if (scale.empty()) return 1.0;
    const std::size_t dev = device_of(client);
    return dev < scale.size() ? scale[dev] : 1.0;
  }

  /// Fills `out` with cumulative materialization counters and returns true
  /// when this provider tracks them (lazy populations); eager providers
  /// keep the default false and the scheduler stamps no pop.* extras.
  virtual bool population_counters(PopulationCounters& /*out*/) const {
    return false;
  }

  /// Nothing in the program reads this. The virtual stays only because the
  /// round benchmark's forwarding provider (perfbench/probes.h) overrides
  /// it; drop the two together.
  virtual const std::vector<Dataset>* dataset_vector() const {
    return nullptr;
  }
};

}  // namespace hetero
