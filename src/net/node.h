// Sans-IO protocol nodes for the distributed FL daemon (DESIGN.md §14).
//
// RootServer, WorkerNode, and EdgeNode consume decoded frames (on_frame)
// and emit frames through a FrameSink. No sockets, no clocks in the
// protocol logic — the same three classes are driven by the deterministic
// in-process loopback hub (net/loopback.h, used by the byte-identity tests)
// and by the epoll event loop (net/event_loop.h, used by `hsctl
// serve/client/edge`).
//
// The root is not a round engine: it is run_simulation's remote train step
// (runtime/sched/remote_step.h). The EventScheduler samples each wave,
// applies the fault rule, commits, aggregates and evaluates exactly as in
// process, and hands the wave's trainable clients to the root, which ships
// each one's training stream and corrupt decision to the node owning its
// position. Workers reproduce (and poison) every update bit for bit; edges
// validate and fold their block with the partial_aggregate the in-process
// hierarchical_aggregate uses. A daemon run — faults, one-wave buffered
// runs and resume included — is therefore byte-identical to run_simulation
// for the same (seed, config, population, algorithm).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fl/algorithm.h"
#include "fl/client_provider.h"
#include "net/protocol.h"
#include "net/wire.h"
#include "runtime/sched/remote_step.h"

namespace hetero::net {

/// Lifecycle of one connection as seen by the worker or edge that owns it.
enum class ConnState : std::uint8_t {
  kHandshakeWait,  ///< awaiting Hello / HelloAck
  kRoundIdle,      ///< between rounds
  kPulling,        ///< round config out / model pull in flight
  kTraining,       ///< local updates running
  kDone,           ///< Bye exchanged
  kQuarantined,    ///< protocol violation or lost peer; node failed
};

/// Outgoing-frame sink implemented by the transports. send() owns the
/// run/seq stamping and CRC framing for the connection.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void send(std::size_t conn, FrameType type,
                    const std::vector<std::uint8_t>& payload) = 0;
};

/// The aggregation root's wire side: the handshake, one RoundConfig per
/// downstream node per wave, ModelPull answers, UpdatePush / Digest
/// validation, and a transport pump it runs until the wave's updates are
/// in. One instance per run.
class RootServer : public RemoteTrainStep {
 public:
  /// Runs the transport until `until` holds or no progress is possible.
  using Pump = std::function<void(const std::function<bool()>& until)>;

  /// Serves `num_downstream` workers (edges == 0) or that many edges
  /// (edges == num_downstream). `rounds` is announced in HelloAck and Bye.
  RootServer(FrameSink& sink, std::size_t num_downstream, std::size_t edges,
             std::size_t rounds, Pump pump);
  // Transports hold the root's address in their frame handlers.
  RootServer(const RootServer&) = delete;
  RootServer& operator=(const RootServer&) = delete;

  void on_frame(std::size_t conn, const Frame& frame);
  /// A downstream node's connection closed. Losing a node that said Hello
  /// fails the root; a connection closing before its Hello or after Bye
  /// is harmless.
  void on_closed(std::size_t conn);

  /// Every downstream node has said Hello.
  bool ready() const { return hellos_ == conn_of_node_.size(); }
  /// Sends Bye to every node; call once, after the run.
  void finish();

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  std::size_t frames_rejected() const { return frames_rejected_; }

  std::size_t edge_groups() const override { return edges_; }
  void train(std::size_t wave, std::size_t wave_size, const Tensor& base,
             const std::vector<RemoteClient>& clients,
             RemoteWave& out) override;

 private:
  void fail(const std::string& message);
  void protocol_error(const std::string& message);
  void handle_hello(std::size_t conn, const Frame& frame);
  void handle_model_pull(std::size_t conn, const Frame& frame);
  void handle_update_push(std::size_t conn, const Frame& frame);
  void handle_digest(std::size_t conn, const Frame& frame);

  FrameSink& sink_;
  std::size_t edges_;
  std::size_t rounds_;
  Pump pump_;

  std::vector<std::ptrdiff_t> conn_of_node_;  // -1 until Hello
  std::map<std::size_t, std::size_t> node_of_conn_;
  std::size_t hellos_ = 0;
  bool finished_ = false;

  // The wave in flight; set only inside train().
  std::size_t wave_ = 0;
  std::size_t wave_size_ = 0;
  const Tensor* base_ = nullptr;
  const std::vector<RemoteClient>* clients_ = nullptr;
  RemoteWave* out_ = nullptr;
  std::vector<std::ptrdiff_t> index_of_position_;  // batch index or -1
  std::vector<std::uint8_t> received_;  // per client (flat) or per edge
  std::vector<std::optional<ClientUpdate>> digests_;  // per edge
  std::size_t pending_ = 0;

  bool failed_ = false;
  std::string error_;
  std::size_t frames_rejected_ = 0;
};

/// A worker: trains its assigned clients against its ClientProvider, each
/// with the stream and corrupt decision its RoundConfig carries. Identical
/// protocol whether its upstream is the root or an edge.
class WorkerNode {
 public:
  WorkerNode(Model& model, const SplitFederatedAlgorithm& algorithm,
             const ClientProvider& population, FrameSink& sink,
             std::size_t upstream_conn, std::uint64_t node_index);

  /// Sends the Hello; call once after the upstream connection is up.
  void start();
  void on_frame(std::size_t conn, const Frame& frame);

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
  /// connected (the run starts the moment all the root's downstream nodes
  /// have said Hello, so an edge must not announce itself before it can
  /// actually fan a wave out).
  void start();
  void on_frame(std::size_t conn, const Frame& frame);
  /// Losing the root before Bye, or a worker that said Hello, fails the
  /// node; a connection closing before its Hello is harmless.
  void on_closed(std::size_t conn);

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
