// Sans-IO protocol nodes for the distributed FL daemon (DESIGN.md §14).
//
// RootServer, WorkerNode, and EdgeNode are pure per-connection state
// machines: they consume decoded frames (on_frame) and emit frames through
// a FrameSink. No sockets, no clocks in the protocol logic — the same
// three classes are driven by the deterministic in-process loopback hub
// (net/loopback.h, used by the byte-identity tests) and by the epoll event
// loop (net/event_loop.h, used by `hsctl serve/client/edge`).
//
// Determinism contract: for the same (seed, config, population, algorithm)
// a distributed run produces model state, loss history, and observer event
// streams byte-identical to the monolithic run_simulation sync loop —
// including the two-level edge tree, which reuses the exact
// hierarchical_aggregate fold (fl/algorithm.h). The root replicates the
// sync loop's sampling (rng.sample_without_replacement then rng.fork(round))
// and ships the round RNG state in RoundConfig; workers restore it and fork
// per-client streams by id, so every float at every node matches the
// monolithic bit pattern.
//
// Faults, schedulers, and checkpointing stay monolithic-only: the wire
// layer serves the clean sync path (the common production shape) and
// refuses configs it cannot reproduce exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fl/algorithm.h"
#include "fl/client_provider.h"
#include "fl/simulation.h"
#include "net/protocol.h"
#include "net/wire.h"

namespace hetero::net {

/// Lifecycle of one connection as seen by the node that owns it.
enum class ConnState : std::uint8_t {
  kHandshakeWait,  ///< awaiting Hello / HelloAck
  kRoundIdle,      ///< between rounds
  kPulling,        ///< round config out / model pull in flight
  kTraining,       ///< local updates running
  kPushing,        ///< updates / digest in flight
  kDone,           ///< Bye exchanged
  kQuarantined,    ///< protocol violation; connection poisoned
};

const char* conn_state_name(ConnState state);

/// Outgoing-frame sink implemented by the transports. send() owns the
/// run/seq stamping and CRC framing for the connection.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void send(std::size_t conn, FrameType type,
                    const std::vector<std::uint8_t>& payload) = 0;
};

/// Shape of one distributed run, mirroring the SimulationConfig fields the
/// wire layer supports (sync loop, no faults/sched/checkpoint).
struct NetSimConfig {
  std::size_t rounds = 1;
  std::size_t clients_per_round = 1;
  std::uint64_t seed = 42;
  std::size_t eval_every = 0;
  /// Direct downstream nodes of the root: workers (flat) or edges.
  std::size_t num_downstream = 1;
  /// 0 = flat root<-worker tree; >0 = two-level tree with this many edges
  /// (must equal num_downstream), aggregated via hierarchical_aggregate's
  /// exact digest fold.
  std::size_t edge_groups = 0;
  RoundObserver* observer = nullptr;
  /// Emit net.frames_rx / net.bytes_rx round extras from `counters`.
  /// Default off: traffic totals are deterministic per topology but differ
  /// from the monolithic trace, which would break byte-equality.
  bool trace_extras = false;
  const NetCounters* counters = nullptr;  ///< transport totals (non-owning)
};

/// The aggregation root: samples clients, drives rounds, owns the global
/// model and the observer event stream. One instance per run.
class RootServer {
 public:
  RootServer(Model& model, SplitFederatedAlgorithm& algorithm,
             const ClientProvider& population, const NetSimConfig& cfg,
             FrameSink& sink);

  void on_frame(std::size_t conn, const Frame& frame);

  bool done() const { return done_; }
  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  std::size_t frames_rejected() const { return frames_rejected_; }
  /// Root's view of downstream node `index`.
  ConnState node_state(std::size_t index) const;
  /// Final result; valid once done().
  SimulationResult take_result() { return std::move(result_); }

 private:
  void protocol_error(std::size_t conn, const std::string& message);
  void start_round(std::size_t round);
  void handle_hello(std::size_t conn, const Frame& frame);
  void handle_model_pull(std::size_t conn, const Frame& frame);
  void handle_update_push(std::size_t conn, const Frame& frame);
  void handle_digest(std::size_t conn, const Frame& frame);
  void finish_round_flat();
  void finish_round_edges();
  void finish_round_common(RoundStats stats, std::size_t quarantined,
                           bool aborted);

  Model& model_;
  SplitFederatedAlgorithm& algorithm_;
  const ClientProvider& population_;
  NetSimConfig cfg_;
  FrameSink& sink_;
  Rng rng_;

  std::vector<std::ptrdiff_t> conn_of_node_;  // -1 until Hello
  std::map<std::size_t, std::size_t> node_of_conn_;
  std::vector<ConnState> node_state_;
  std::size_t hellos_ = 0;

  std::size_t round_ = 0;
  std::vector<std::size_t> selected_;
  RngState round_rng_;
  Tensor global_;
  double round_start_seconds_ = 0.0;  // steady_clock reference, wall only

  // Flat mode: one slot per selected position.
  std::vector<ClientUpdate> updates_;
  std::vector<std::uint8_t> update_received_;
  std::size_t updates_pending_ = 0;
  // Edge mode: one digest per edge.
  std::vector<DigestMsg> digests_;
  std::vector<std::uint8_t> digest_received_;
  std::size_t digests_pending_ = 0;

  SimulationResult result_;
  bool done_ = false;
  bool failed_ = false;
  std::string error_;
  std::size_t frames_rejected_ = 0;
};

/// A worker: trains its assigned clients against its ClientProvider slice.
/// Identical protocol whether its upstream is the root or an edge.
class WorkerNode {
 public:
  WorkerNode(Model& model, const SplitFederatedAlgorithm& algorithm,
             const ClientProvider& population, FrameSink& sink,
             std::size_t upstream_conn, std::uint64_t node_index);

  /// Sends the Hello; call once after the upstream connection is up.
  void start();
  void on_frame(std::size_t conn, const Frame& frame);

  ConnState state() const { return state_; }
  bool done() const { return state_ == ConnState::kDone; }
  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  std::size_t rounds_trained() const { return rounds_trained_; }

 private:
  void protocol_error(const std::string& message);

  Model& model_;
  const SplitFederatedAlgorithm& algorithm_;
  const ClientProvider& population_;
  FrameSink& sink_;
  std::size_t upstream_conn_;
  std::uint64_t node_index_;

  ConnState state_ = ConnState::kHandshakeWait;
  RoundConfigMsg round_cfg_;
  ClientSlot slot_;
  std::size_t rounds_trained_ = 0;
  bool failed_ = false;
  std::string error_;
};

/// An edge aggregator: relays round configs and the global state to its
/// workers, validates their updates, folds the survivors into one weighted
/// digest with SplitFederatedAlgorithm::partial_aggregate (the
/// renormalization of DESIGN.md §10 — the same call the monolithic
/// hierarchical_aggregate makes, so the digest is bit-identical), and
/// forwards digest + per-client metas to the root.
class EdgeNode {
 public:
  EdgeNode(const SplitFederatedAlgorithm& algorithm, FrameSink& sink,
           std::size_t upstream_conn, std::uint64_t edge_index,
           std::size_t num_workers);

  /// Arms the node. The upstream Hello is deferred until every worker has
  /// connected (the root starts round 0 the moment all its downstream
  /// nodes have said Hello, so an edge must not announce itself before it
  /// can actually fan a round out).
  void start();
  void on_frame(std::size_t conn, const Frame& frame);

  ConnState state() const { return state_; }
  bool done() const { return state_ == ConnState::kDone; }
  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

 private:
  void protocol_error(const std::string& message);
  void maybe_hello_upstream();
  void handle_upstream(const Frame& frame);
  void handle_worker(std::size_t conn, const Frame& frame);
  void finish_block();

  const SplitFederatedAlgorithm& algorithm_;
  FrameSink& sink_;
  std::size_t upstream_conn_;
  std::uint64_t edge_index_;
  std::size_t num_workers_;

  ConnState state_ = ConnState::kHandshakeWait;
  std::uint64_t rounds_ = 0;
  bool started_ = false;
  bool hello_sent_ = false;
  std::size_t workers_connected_ = 0;
  std::map<std::size_t, std::size_t> worker_of_conn_;
  std::vector<std::ptrdiff_t> conn_of_worker_;  // -1 until Hello

  RoundConfigMsg round_cfg_;  // this edge's block, as assigned by the root
  Tensor global_;
  std::vector<ClientUpdate> block_updates_;   // by block offset
  std::vector<std::uint8_t> block_received_;  // by block offset
  std::size_t block_pending_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace hetero::net
