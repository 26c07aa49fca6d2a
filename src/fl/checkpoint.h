// Round-level checkpoint / resume for runs whose flush window is exactly one
// wave, sync rounds included (DESIGN.md §12).
//
// A checkpoint freezes everything the round engine needs to continue a run
// bit-for-bit: the round cursor, the model state, the sampling Rng's full
// engine state, the loss/virtual-time histories, the fault and dispatch
// counters, and the algorithm's cross-round state via
// SplitFederatedAlgorithm::save_state.
// The file ("HSCK", version 2) is written and read with the util/bytes.h
// codec: doubles are raw 8-byte little-endian words, so the round-trip is
// bit-exact, and tensors are "HSTN" version-1 records private to
// checkpoint.cpp. The file ends in a CRC-32 of every byte before it, so a
// corrupted file fails to load instead of resuming a different run; the
// reader bounds every count, string length and tensor volume by the bytes
// left in the file before it allocates.
//
// The file is written atomically (tmp file + rename) so a crash mid-write
// leaves the previous checkpoint intact.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fl/algorithm.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace hetero {

/// Where / how often a run checkpoints. Parsed from the HS_CHECKPOINT
/// environment spec "DIR[,every=N][,resume=0|1]" by parse_checkpoint_spec.
struct CheckpointOptions {
  std::string dir;        ///< empty disables checkpointing entirely
  std::size_t every = 1;  ///< write after every N completed rounds
  bool resume = true;     ///< resume from an existing checkpoint if present

  bool enabled() const { return !dir.empty(); }
};

/// Parses "DIR[,every=N][,resume=0|1]" (the HS_CHECKPOINT format). Throws
/// std::runtime_error on a malformed spec.
CheckpointOptions parse_checkpoint_spec(const std::string& spec);

/// The canonical checkpoint file inside opts.dir.
std::string checkpoint_path(const CheckpointOptions& opts);

/// Everything needed to resume a run at `next_round` with output
/// bit-identical to the uninterrupted run. seed / num_clients /
/// clients_per_round / algorithm are recorded so resume can refuse a
/// checkpoint written by a differently-configured run.
struct SimulationCheckpoint {
  std::uint64_t next_round = 0;  ///< first round the resumed loop executes
  std::uint64_t seed = 0;
  std::uint64_t num_clients = 0;
  std::uint64_t clients_per_round = 0;
  std::string algorithm;  ///< SplitFederatedAlgorithm::name() at save time
  RngState rng;           ///< sampling/fork Rng cursor
  Tensor model_state;
  std::vector<double> loss_history;
  std::vector<double> round_virtual_seconds;
  /// Deterministic run counters (fault totals etc.), keyed by name.
  std::map<std::string, double> counters;
  AlgorithmCheckpoint algo;
};

/// Serializes to `path` atomically (tmp + rename). Creates the parent
/// directory if needed. Throws std::runtime_error on I/O failure.
void write_checkpoint(const std::string& path, const SimulationCheckpoint& ck);

/// Returns false if `path` does not exist; throws std::runtime_error on a
/// malformed or truncated file, a CRC mismatch, or a version other than 2
/// (the message names the version found).
bool read_checkpoint(const std::string& path, SimulationCheckpoint& out);

}  // namespace hetero
