// RoundObserver: the simulation's telemetry API (DESIGN.md §8).
//
// One observer sees every phase of a federated run:
//   on_round_begin(round, selected)   when a one-wave window (sync) is
//                                     sampled, before any client trains;
//                                     other windows at the flush (§11)
//   on_client_end(round, observation) once per client, in window order
//   on_round_end(round, stats)        after the server aggregate
//   on_eval(round, metrics)           at eval checkpoints and the final eval
//
// Delivery contract: all events fire on the simulation's caller thread.
// The event scheduler buffers per-worker client results and delivers them
// at the flush in window order (selection order for sync rounds), so the
// event stream — like the simulation results themselves — is
// deterministic for any thread count (the determinism contract of §7).
// Only ClientObservation::train_seconds and RoundStats::round_seconds are
// wall-clock and therefore nondeterministic; TracingObserver can omit them
// to produce byte-identical traces.
//
// This header is include-light on purpose (the runtime layer includes
// it): heavyweight types are forward-declared and the concrete observers
// live in observer.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hetero {

struct ClientUpdate;
struct DeviceMetrics;
struct RoundStats;

namespace obs {
class Tracer;
}  // namespace obs

/// Scalar view of one finished client update — everything an observer may
/// want from a ClientUpdate except the tensor payloads.
struct ClientObservation {
  std::size_t client_id = 0;
  std::size_t order = 0;        ///< position in the flush window
  double weight = 0.0;          ///< aggregation weight (sample count)
  double train_loss = 0.0;
  unsigned flags = 0;           ///< algorithm-specific bits (e.g. switches)
  std::size_t update_bytes = 0; ///< uplink payload estimate (state + aux)
  double train_seconds = 0.0;   ///< wall time; NOT deterministic
  /// Virtual seconds this client occupied the simulated timeline: injected
  /// straggler delay + retry backoff + modeled compute time (timeout_s for
  /// timed-out clients). Deterministic, unlike train_seconds, so
  /// TracingObserver emits it even with timings off — but only when
  /// non-zero, keeping delay-free traces byte-identical to older builds.
  double virtual_seconds = 0.0;
  /// Fault disposition of this client (a FaultKind value; see
  /// runtime/faults.h). 0 = clean update; non-zero marks a straggler or a
  /// client whose update was excluded from aggregation. TracingObserver
  /// only emits the field when non-zero, so zero-fault traces stay
  /// byte-identical to builds without the fault layer.
  unsigned fault = 0;
  /// Event-scheduler provenance (DESIGN.md §11); only meaningful when
  /// `scheduled` is set, and only then do the trace fields appear.
  bool scheduled = false;
  double virtual_time = 0.0;    ///< virtual timestamp of the commit
  std::uint64_t version = 0;    ///< server model version trained against
  std::size_t staleness = 0;    ///< server versions committed since dispatch
};

/// Builds the scalar view of a ClientUpdate (update_bytes honours
/// ClientUpdate::payload_bytes, else counts the state and aux tensors at
/// 4 bytes/parameter).
ClientObservation make_observation(const ClientUpdate& update,
                                   std::size_t order);

/// The observation interface. All hooks default to no-ops so observers
/// implement only what they need.
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;

  virtual void on_round_begin(std::size_t /*round*/,
                              const std::vector<std::size_t>& /*selected*/) {}
  virtual void on_client_end(std::size_t /*round*/,
                             const ClientObservation& /*client*/) {}
  virtual void on_round_end(std::size_t /*round*/,
                            const RoundStats& /*stats*/) {}
  virtual void on_eval(std::size_t /*round*/,
                       const DeviceMetrics& /*metrics*/) {}
};

/// Per-round execution context of the round engines: carries the observer
/// (may be null) plus the per-client wall-time accounting behind
/// RuntimeStats::client_seconds_*.
struct RoundContext {
  std::size_t round = 0;
  RoundObserver* observer = nullptr;  ///< non-owning; null = no telemetry

  double client_seconds_sum = 0.0;
  double client_seconds_max = 0.0;

  /// Records one client's wall time and, when an observer is attached,
  /// delivers its observation.
  void finish_client(const ClientObservation& client);
};

/// Fans events out to any number of child observers (registration order).
class MulticastObserver : public RoundObserver {
 public:
  /// Null children are ignored, so callers can add conditionally.
  void add(RoundObserver* child);
  bool empty() const { return children_.empty(); }

  void on_round_begin(std::size_t round,
                      const std::vector<std::size_t>& selected) override;
  void on_client_end(std::size_t round,
                     const ClientObservation& client) override;
  void on_round_end(std::size_t round, const RoundStats& stats) override;
  void on_eval(std::size_t round, const DeviceMetrics& metrics) override;

 private:
  std::vector<RoundObserver*> children_;
};

/// Emits the trace events of DESIGN.md §8 through an obs::Tracer. Honours
/// the tracer's include_timings flag: with timings off the emitted trace is
/// byte-identical for any thread count.
class TracingObserver : public RoundObserver {
 public:
  explicit TracingObserver(obs::Tracer& tracer) : tracer_(tracer) {}

  void on_round_begin(std::size_t round,
                      const std::vector<std::size_t>& selected) override;
  void on_client_end(std::size_t round,
                     const ClientObservation& client) override;
  void on_round_end(std::size_t round, const RoundStats& stats) override;
  void on_eval(std::size_t round, const DeviceMetrics& metrics) override;

 private:
  obs::Tracer& tracer_;
};

}  // namespace hetero
