// In-process loopback transport for the distributed protocol nodes.
//
// Wires a RootServer, optional EdgeNodes, and WorkerNodes together through
// byte pipes: every frame is encoded, CRC-stamped, fed through a real
// FrameParser, and decoded on the receiving side — the full wire path, no
// sockets. Frame delivery order is a fixed function of the topology
// (channels are pumped in creation order until quiescent), and the run
// itself is run_simulation with the root as its remote train step, so it
// is byte-identical to run_simulation for the same (seed, config,
// population, algorithm) — including the two-level edge tree versus
// SimulationConfig::edge_groups (DESIGN.md §14).
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
/// Waits for every Hello, runs run_simulation(..., &root) with
/// edge_groups = num_edges (cfg.edge_groups must be 0 or num_edges), and
/// sends Bye. Accepts what run_simulation accepts with a remote train
/// step: wave sampling, a stateless-client-phase algorithm, and under
/// edges one-wave flush windows — faults, buffered waves, alpha, compute
/// and checkpoint/resume included. Mutates `model` exactly like
/// run_simulation. Throws on unsupported configs or any protocol failure.
LoopbackResult run_distributed_loopback(Model& model,
                                        SplitFederatedAlgorithm& algorithm,
                                        const ClientProvider& population,
                                        const SimulationConfig& cfg,
                                        std::size_t num_workers,
                                        std::size_t num_edges = 0);

}  // namespace hetero::net
