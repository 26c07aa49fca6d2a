// Deterministic fault injection for the client-execution runtime.
//
// Real FL populations drop out, straggle, fail transiently, and ship
// corrupt updates (Abdelmoniem et al.; Yang et al.). This layer injects
// those behaviours into the simulator WITHOUT breaking the deterministic-
// replay contract of DESIGN.md §7: every per-(round, client) decision is
// drawn from a dedicated fault stream forked as Rng(seed).fork(round,
// client) — keyed by coordinates, never by loop order, worker identity, or
// wall clock — so an identical FaultPlan reproduces bit-for-bit for any
// HS_THREADS value. Straggler delays and retry backoffs are *virtual*
// seconds: they are compared against timeout_s and reported in telemetry,
// but never slept on, so timeouts are decided deterministically too.
//
// The plan only decides WHAT happens; the event scheduler applies it under
// one fault rule in every mode (dropping clients, timing out slow ones,
// retrying transient failures with backoff, poisoning updates with
// non-finite values) and every aggregate path handles the fallout via
// partial aggregation (DESIGN.md §10).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "util/rng.h"

namespace hetero {

/// Knobs of the fault layer. All probabilities are per (round, client).
/// Default-constructed options inject nothing (enabled() == false), which
/// the scheduler treats as "fault layer off": the zero-fault execution path
/// is byte-identical to a build without this layer.
struct FaultOptions {
  /// Client vanishes for the round before training (device offline).
  double dropout_prob = 0.0;
  /// Transient per-attempt failure; retried up to max_retries times with
  /// exponential virtual backoff before the client counts as failed.
  double fail_prob = 0.0;
  std::size_t max_retries = 2;
  /// Virtual backoff before retry r (0-based): retry_backoff_s * 2^r.
  double retry_backoff_s = 0.05;
  /// Straggler: the client's update arrives late by a virtual delay drawn
  /// uniformly from [0, 2 * straggler_delay_s) (mean straggler_delay_s).
  double straggler_prob = 0.0;
  double straggler_delay_s = 1.0;
  /// Per-client round deadline in virtual seconds; a client whose modeled
  /// compute plus straggler delay exceeds it is dropped as timed out (retry
  /// backoff does not count). 0 disables the deadline.
  double timeout_s = 0.0;
  /// Corrupt update: one coordinate of the returned tensor payload is
  /// poisoned with NaN/+Inf/-Inf after local training. validate_update()
  /// quarantines such updates before they can reach the global model.
  double corrupt_prob = 0.0;
  /// Partial-aggregation floor: a round with fewer usable updates aborts
  /// gracefully (global model untouched). Clamped to at least 1.
  std::size_t min_clients = 1;
  /// Seed of the fault stream. Deliberately independent of the simulation
  /// seed so fault scenarios can be re-rolled without perturbing training.
  std::uint64_t seed = 0xFA17u;
  /// Derive per-client delay scales from device-profile speed tiers
  /// ("tiers=1" in the spec): the scheduler sets delay_scale_fn to
  /// ClientProvider::speed_scale_of so straggler delays stretch with the
  /// client's hardware class instead of one global knob.
  bool device_tier_delays = false;
  /// Per-client multiplier on injected straggler delays; unset =
  /// homogeneous 1.0. A function rather than a table so million-client
  /// populations never build an O(N) vector. MUST be pure and thread-safe
  /// (decide() may run concurrently); ClientProvider::speed_scale_of
  /// satisfies both.
  std::function<double(std::size_t)> delay_scale_fn;

  /// True when any injection probability is positive. min_clients and
  /// update validation are active regardless (they also guard against
  /// organically non-finite updates).
  bool enabled() const {
    return dropout_prob > 0.0 || fail_prob > 0.0 || straggler_prob > 0.0 ||
           corrupt_prob > 0.0;
  }
};

/// Parses an HS_FAULTS-style spec: comma-separated key=value pairs over
/// the keys drop, fail, retries, backoff, straggle, delay, timeout,
/// corrupt, min, seed, tiers (e.g. "drop=0.1,corrupt=0.05,min=2" or
/// "straggle=0.3,delay=2,tiers=1"). Unknown keys, malformed pairs and
/// out-of-range values (check_fault_options) throw std::invalid_argument.
FaultOptions parse_fault_spec(const std::string& spec);

/// Throws std::invalid_argument "<caller>: ..." naming the first knob out
/// of range: a probability outside [0, 1], or a negative or non-finite
/// duration (retry_backoff_s, straggler_delay_s, timeout_s).
/// parse_fault_spec and check_simulation_config both run it, so options
/// built in code are held to the spec's ranges.
void check_fault_options(const FaultOptions& options, const char* caller);

/// What happened to one client in one round. kOk and kStraggler produced a
/// usable update; every other kind excluded the client from aggregation.
enum class FaultKind : unsigned {
  kOk = 0,
  kStraggler = 1,    ///< usable, but arrived with injected delay
  kDropout = 2,      ///< never started (device offline)
  kTimeout = 3,      ///< straggler delay exceeded timeout_s
  kFailed = 4,       ///< transient failures exhausted the retry budget
  kQuarantined = 5,  ///< update carried non-finite values; excluded
};

const char* fault_kind_name(FaultKind kind);

/// The plan's verdict for one (round, client) coordinate, before execution.
struct FaultDecision {
  bool drop = false;              ///< dropout fires
  std::size_t fail_attempts = 0;  ///< leading attempts that fail transiently
  double delay_s = 0.0;           ///< injected virtual straggler delay
  bool corrupt = false;           ///< poison the update post-training
  int corrupt_kind = 0;           ///< 0 = NaN, 1 = +Inf, 2 = -Inf
  std::uint64_t corrupt_pos = 0;  ///< poisoned coordinate (mod payload size)
  /// Virtual compute-time jitter in [-1, 1), consumed by the scheduler's
  /// DelayModel. Drawn last so adding it never shifted the draws above.
  double compute_jitter = 0.0;
};

struct ClientUpdate;

/// Applies a corrupt-update decision: poisons one coordinate of the
/// update's tensor payload (state when present, else aux, else the weight)
/// with a non-finite value so validate_update rejects it.
void poison_update(ClientUpdate& update, const FaultDecision& d);

/// Summed virtual backoff over the first `retries` retries; retry r
/// (0-based) waits retry_backoff_s * 2^r, with the exponent capped so
/// absurd retry budgets cannot overflow to inf.
double total_backoff_seconds(const FaultOptions& options, std::size_t retries);

/// Deterministic fault schedule over (round, client) coordinates.
///
/// decide() is const and thread-safe: it forks a child stream off an
/// immutable base Rng, so it may be called concurrently from any worker.
/// The draw order inside decide() is FIXED regardless of which fault types
/// are enabled — turning one knob never re-randomizes the decisions of
/// another, which keeps fault ablations comparable.
class FaultPlan {
 public:
  explicit FaultPlan(const FaultOptions& options);

  FaultDecision decide(std::size_t round, std::size_t client) const;
  const FaultOptions& options() const { return options_; }

 private:
  FaultOptions options_;
  Rng base_;
};

}  // namespace hetero
