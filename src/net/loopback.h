// In-process loopback transport for the distributed protocol nodes.
//
// Wires a RootServer, optional EdgeNodes, and WorkerNodes together through
// byte pipes: every frame is encoded, CRC-stamped, fed through a real
// FrameParser, and decoded on the receiving side — the full wire path, no
// sockets. Frame delivery order is a fixed function of the topology
// (channels are pumped in creation order until quiescent), so a loopback
// run is fully deterministic and, per the DESIGN.md §14 contract,
// byte-identical to the monolithic run_simulation for the same
// (seed, config, population, algorithm) — including the two-level edge
// tree versus SimulationConfig::edge_groups.
//
// This is both the reference harness the byte-identity tests drive and the
// shape `hsctl serve/client/edge` reproduces over TCP.
#pragma once

#include "fl/simulation.h"
#include "net/node.h"

namespace hetero::net {

struct LoopbackResult {
  SimulationResult result;
  NetCounters counters;  ///< totals across every channel in the run
};

/// Runs cfg.rounds of the algorithm distributed across `num_workers` worker
/// nodes — flat (num_edges == 0, workers connect to the root) or two-level
/// (num_edges > 0, workers connect to their edge by edge_group_of(w,
/// num_workers, num_edges) and edges forward partial digests to the root).
///
/// Supports the same subset as the wire layer: the sync loop with a
/// stateless-client-phase algorithm, no faults, no scheduler, no
/// checkpointing. Mutates `model` exactly like run_simulation. Throws
/// std::invalid_argument on unsupported configs or any protocol failure.
LoopbackResult run_distributed_loopback(Model& model,
                                        SplitFederatedAlgorithm& algorithm,
                                        const ClientProvider& population,
                                        const SimulationConfig& cfg,
                                        std::size_t num_workers,
                                        std::size_t num_edges = 0);

}  // namespace hetero::net
