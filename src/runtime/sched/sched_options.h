// Configuration of the virtual-clock event scheduler (DESIGN.md §11).
//
// Three server aggregation disciplines share one discrete-event core:
//   kSync     — synchronous FedAvg rounds: waves of k clients that flush at
//               k, folded in selection order (the default).
//   kAsync    — FedAsync-style: the server folds every arriving update as
//               soon as it commits (buffer == 1), scaled by a staleness
//               decay on the model-version delta.
//   kBuffered — FedBuff-style: arrivals accumulate and the server flushes
//               every `buffer` terminal client outcomes. buffer == k with
//               wave sampling has exactly sync's window shape, and with
//               no delays it reproduces sync FedAvg bit for bit (asserted
//               in tests/test_sched.cpp).
//
// This header is include-light on purpose: fl/simulation.h embeds
// SchedulerOptions in SimulationConfig.
#pragma once

#include <cstddef>
#include <string>

namespace hetero {

enum class SchedMode {
  kSync = 0,
  kAsync = 1,
  kBuffered = 2,
};

const char* sched_mode_name(SchedMode mode);

/// Knobs of the event scheduler. Defaults select sync mode.
struct SchedulerOptions {
  SchedMode mode = SchedMode::kSync;
  /// Buffered mode: flush after this many terminal client outcomes
  /// (arrivals, dropouts, timeouts and failures all count — the server
  /// stops waiting for a client exactly once). 0 means "clients_per_round",
  /// the sync-shaped default. Async mode always flushes per arrival.
  std::size_t buffer = 0;
  /// Server mixing rate: after aggregating a flush into x_agg the server
  /// state becomes (1 - alpha) * x_prev + alpha * x_agg. 1 (default)
  /// adopts the aggregate outright, exactly like sync FedAvg.
  double mix_alpha = 1.0;
  /// Staleness decay exponent a in f(s) = (1 + s)^-a, where s is the
  /// number of server versions committed between a client's dispatch and
  /// its arrival. f(0) == 1 exactly, so fresh updates keep their FedAvg
  /// weight. 0 disables staleness weighting.
  double staleness_exponent = 0.5;
  /// Sampling discipline of the scheduled modes (sync always samples
  /// waves). false (default): continuous refill — every terminal outcome
  /// immediately dispatches a replacement client, keeping k clients in
  /// flight (requires k < N). true: wave sampling — k clients are drawn
  /// together at the start and after every flush, with sync's per-round
  /// selection draws exactly.
  bool wave_sampling = false;
  /// Virtual compute seconds per local training sample, before the
  /// per-client device-tier speed scale and jitter. 0 (default) models
  /// instantaneous compute, so virtual time advances only through injected
  /// fault delays.
  double base_compute_s = 0.0;

  bool scheduled() const { return mode != SchedMode::kSync; }
  /// True when clients are drawn in waves of k.
  bool waves() const { return wave_sampling || mode == SchedMode::kSync; }
  /// Flush threshold after resolving defaults against the round size k.
  std::size_t resolve_buffer(std::size_t clients_per_round) const {
    if (mode == SchedMode::kAsync) return 1;
    if (mode == SchedMode::kSync) return clients_per_round;
    return buffer > 0 ? buffer : clients_per_round;
  }
  /// True when every flush window is exactly one wave: the synchronous
  /// round shape, with a flush boundary where no client is in flight.
  bool one_wave(std::size_t clients_per_round) const {
    return waves() && resolve_buffer(clients_per_round) == clients_per_round;
  }
};

/// Parses an HS_SCHED-style spec. The first comma-separated token may be a
/// bare mode name (sync, async, buffered); the rest are key=value pairs
/// over mode, buffer, alpha, exp, compute, wave — e.g. "async,exp=1" or
/// "buffered,buffer=8,alpha=0.6". Unknown keys, malformed pairs and
/// out-of-range values (check_sched_options) throw std::invalid_argument.
SchedulerOptions parse_sched_spec(const std::string& spec);

/// Throws std::invalid_argument "<caller>: ..." naming the first knob out
/// of range: mix_alpha outside (0, 1], or a negative or non-finite
/// staleness_exponent or base_compute_s. parse_sched_spec and
/// check_simulation_config both run it.
void check_sched_options(const SchedulerOptions& options, const char* caller);

}  // namespace hetero
