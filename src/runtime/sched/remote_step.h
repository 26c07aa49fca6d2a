// The event scheduler's remote train step (DESIGN.md §14): each wave's
// trainable clients train on other processes instead of the local pool.
// net::RootServer implements it; run_simulation takes it as an argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fl/algorithm.h"
#include "util/rng.h"

namespace hetero {

/// One trainable dispatch, as the scheduler fixed it at dispatch: enough
/// to reproduce the in-process update bit for bit.
struct RemoteClient {
  std::uint64_t client_id = 0;
  std::uint64_t position = 0;  ///< index in the wave's selection
  RngState stream;             ///< the client's training stream
  bool corrupt = false;        ///< poison_update after training
  std::uint8_t corrupt_kind = 0;  ///< 0 = NaN, 1 = +Inf, 2 = -Inf
  std::uint64_t corrupt_pos = 0;
};

/// One wave's results. A flat tree returns full updates. Under edges the
/// states stay folded in the digests: updates carry only their scalars
/// (payload_bytes = the resolved uplink size) plus each edge's verdict.
struct RemoteWave {
  std::vector<ClientUpdate> updates;      ///< per client, in wave order
  std::vector<std::uint8_t> quarantined;  ///< per client; edges only
  std::vector<ClientUpdate> digests;      ///< edges with a survivor, in order
};

class RemoteTrainStep {
 public:
  virtual ~RemoteTrainStep() = default;
  /// Edge count of the remote tree (0 = flat); must equal
  /// SimulationConfig::edge_groups.
  virtual std::size_t edge_groups() const = 0;
  /// Trains `clients` (position order; the wave has `wave_size`
  /// selections) against `base`. Throws std::runtime_error when a node
  /// fails or is lost before every reply is in.
  virtual void train(std::size_t wave, std::size_t wave_size,
                     const Tensor& base,
                     const std::vector<RemoteClient>& clients,
                     RemoteWave& out) = 0;
};

}  // namespace hetero
