#include "net/node.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "runtime/faults.h"
#include "util/rng.h"

namespace hetero::net {
namespace {

using Clock = std::chrono::steady_clock;

double monotonic_seconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ------------------------------------------------------------- RootServer

RootServer::RootServer(FrameSink& sink, std::size_t num_downstream,
                       std::size_t edges, std::size_t rounds, Pump pump)
    : sink_(sink), edges_(edges), rounds_(rounds), pump_(std::move(pump)) {
  HS_CHECK(num_downstream > 0, "RootServer: no downstream nodes");
  HS_CHECK(edges == 0 || edges == num_downstream,
           "RootServer: edges must equal the downstream node count");
  conn_of_node_.assign(num_downstream, -1);
}

void RootServer::fail(const std::string& message) {
  if (!failed_) {
    failed_ = true;
    error_ = message;
  }
}

void RootServer::protocol_error(const std::string& message) {
  ++frames_rejected_;
  fail(message);
}

void RootServer::on_frame(std::size_t conn, const Frame& frame) {
  if (failed_ || finished_) return;
  switch (static_cast<FrameType>(frame.header.type)) {
    case FrameType::kHello:
      handle_hello(conn, frame);
      return;
    case FrameType::kModelPull:
      handle_model_pull(conn, frame);
      return;
    case FrameType::kUpdatePush:
      handle_update_push(conn, frame);
      return;
    case FrameType::kDigest:
      handle_digest(conn, frame);
      return;
    default:
      protocol_error(std::string("root: unexpected frame type ") +
                     frame_type_name(static_cast<FrameType>(frame.header.type)));
  }
}

void RootServer::on_closed(std::size_t conn) {
  const auto it = node_of_conn_.find(conn);
  if (it == node_of_conn_.end() || finished_) return;
  fail(std::string("root: lost ") + (edges_ > 0 ? "edge " : "worker ") +
       std::to_string(it->second));
}

void RootServer::handle_hello(std::size_t conn, const Frame& frame) {
  HelloMsg m;
  if (!decode_hello(frame.payload, m)) {
    protocol_error("root: malformed hello");
    return;
  }
  const NodeRole expected = edges_ > 0 ? NodeRole::kEdge : NodeRole::kWorker;
  if (m.role != expected || m.node_index >= conn_of_node_.size() ||
      conn_of_node_[m.node_index] != -1 || node_of_conn_.count(conn) != 0) {
    protocol_error("root: invalid hello");
    return;
  }
  conn_of_node_[m.node_index] = static_cast<std::ptrdiff_t>(conn);
  node_of_conn_[conn] = static_cast<std::size_t>(m.node_index);
  ++hellos_;
  HelloAckMsg ack;
  ack.node_index = m.node_index;
  ack.rounds = rounds_;
  sink_.send(conn, FrameType::kHelloAck, encode_hello_ack(ack));
}

void RootServer::finish() {
  finished_ = true;
  ByeMsg bye;
  bye.rounds_done = rounds_;
  for (const std::ptrdiff_t conn : conn_of_node_) {
    if (conn >= 0) {
      sink_.send(static_cast<std::size_t>(conn), FrameType::kBye,
                 encode_bye(bye));
    }
  }
}

void RootServer::train(std::size_t wave, std::size_t wave_size,
                       const Tensor& base,
                       const std::vector<RemoteClient>& clients,
                       RemoteWave& out) {
  if (failed_) throw std::runtime_error(error_);
  HS_CHECK(ready(), "RootServer: train before every node said Hello");
  const std::size_t nodes = conn_of_node_.size();
  // The wave's pointers live only while train() runs, whichever way it
  // leaves; a late frame then finds no wave in flight.
  struct WaveScope {
    RootServer& root;
    ~WaveScope() {
      root.base_ = nullptr;
      root.clients_ = nullptr;
      root.out_ = nullptr;
    }
  } scope{*this};
  wave_ = wave;
  wave_size_ = wave_size;
  base_ = &base;
  clients_ = &clients;
  out_ = &out;
  out.updates.assign(clients.size(), ClientUpdate{});
  out.quarantined.assign(edges_ > 0 ? clients.size() : 0, 0);
  out.digests.clear();
  index_of_position_.assign(wave_size, -1);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    index_of_position_[clients[i].position] = static_cast<std::ptrdiff_t>(i);
  }
  received_.assign(edges_ > 0 ? edges_ : clients.size(), 0);
  digests_.assign(edges_, std::nullopt);
  pending_ = received_.size();

  // One config per node. Positions go out in the same edge_group_of blocks
  // the fold uses, so under edges each edge gets exactly the clients whose
  // digest it owns.
  std::vector<RoundConfigMsg> configs(nodes);
  for (RoundConfigMsg& msg : configs) {
    msg.round = wave;
    msg.n_selected = wave_size;
  }
  for (const RemoteClient& c : clients) {
    configs[edge_group_of(c.position, wave_size, nodes)].clients.push_back(c);
  }
  for (std::size_t d = 0; d < nodes; ++d) {
    sink_.send(static_cast<std::size_t>(conn_of_node_[d]),
               FrameType::kRoundConfig, encode_round_config(configs[d]));
  }
  pump_([this] { return pending_ == 0 || failed_; });

  if (failed_) throw std::runtime_error(error_);
  if (pending_ > 0) {
    throw std::runtime_error("root: transport stopped with " +
                             std::to_string(pending_) +
                             " replies outstanding");
  }
  for (std::optional<ClientUpdate>& digest : digests_) {
    if (digest) out.digests.push_back(std::move(*digest));
  }
}

void RootServer::handle_model_pull(std::size_t conn, const Frame& frame) {
  ModelPullMsg m;
  if (!decode_model_pull(frame.payload, m) || node_of_conn_.count(conn) == 0 ||
      base_ == nullptr || m.round != wave_) {
    protocol_error("root: invalid model pull");
    return;
  }
  ModelStateMsg reply;
  reply.round = wave_;
  reply.state = *base_;
  sink_.send(conn, FrameType::kModelState, encode_model_state(reply));
}

void RootServer::handle_update_push(std::size_t conn, const Frame& frame) {
  UpdatePushMsg m;
  const auto node = node_of_conn_.find(conn);
  if (!decode_update_push(frame.payload, m) || node == node_of_conn_.end() ||
      edges_ > 0 || out_ == nullptr || m.round != wave_ ||
      m.position >= wave_size_ || index_of_position_[m.position] < 0 ||
      edge_group_of(m.position, wave_size_, conn_of_node_.size()) !=
          node->second) {
    protocol_error("root: invalid update push");
    return;
  }
  const auto i = static_cast<std::size_t>(index_of_position_[m.position]);
  if (received_[i] != 0) {
    protocol_error("root: duplicate update push");
    return;
  }
  out_->updates[i] = std::move(m.update);
  received_[i] = 1;
  --pending_;
}

void RootServer::handle_digest(std::size_t conn, const Frame& frame) {
  DigestMsg m;
  const auto node = node_of_conn_.find(conn);
  if (!decode_digest(frame.payload, m) || node == node_of_conn_.end() ||
      edges_ == 0 || out_ == nullptr || m.round != wave_ ||
      m.edge_index != node->second || received_[m.edge_index] != 0) {
    protocol_error("root: invalid digest");
    return;
  }
  // The metas must be exactly this edge's clients, in position order, and
  // has_digest must match the survivor count. Each meta becomes the scalar
  // stand-in of its client's update.
  std::size_t j = 0;
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < clients_->size(); ++i) {
    const std::uint64_t pos = (*clients_)[i].position;
    if (edge_group_of(pos, wave_size_, edges_) != m.edge_index) continue;
    if (j == m.metas.size() || m.metas[j].position != pos) {
      protocol_error("root: digest block mismatch");
      return;
    }
    const WireUpdateMeta& meta = m.metas[j++];
    ClientUpdate& u = out_->updates[i];
    u.client_id = meta.client_id;
    u.weight = meta.weight;
    u.train_loss = meta.train_loss;
    u.flags = meta.flags;
    u.payload_bytes = meta.update_bytes;
    u.train_seconds = meta.train_seconds;
    out_->quarantined[i] = meta.quarantined;
    if (!meta.quarantined) ++survivors;
  }
  if (j != m.metas.size() || (survivors > 0) != (m.has_digest != 0)) {
    protocol_error("root: digest block mismatch");
    return;
  }
  if (m.has_digest) digests_[m.edge_index] = std::move(m.digest);
  received_[m.edge_index] = 1;
  --pending_;
}

// ------------------------------------------------------------- WorkerNode

WorkerNode::WorkerNode(Model& model,
                       const SplitFederatedAlgorithm& algorithm,
                       const ClientProvider& population, FrameSink& sink,
                       std::size_t upstream_conn, std::uint64_t node_index)
    : model_(model),
      algorithm_(algorithm),
      population_(population),
      sink_(sink),
      upstream_conn_(upstream_conn),
      node_index_(node_index) {
  HS_CHECK(algorithm_.stateless_client_phase(),
           "WorkerNode: this algorithm's client phase reads server-held "
           "state and cannot run on remote workers");
}

void WorkerNode::protocol_error(const std::string& message) {
  failed_ = true;
  if (error_.empty()) error_ = message;
  state_ = ConnState::kQuarantined;
}

void WorkerNode::start() {
  HelloMsg m;
  m.role = NodeRole::kWorker;
  m.node_index = node_index_;
  sink_.send(upstream_conn_, FrameType::kHello, encode_hello(m));
  state_ = ConnState::kHandshakeWait;
}

void WorkerNode::on_frame(std::size_t conn, const Frame& frame) {
  if (failed_ || state_ == ConnState::kDone) return;
  if (conn != upstream_conn_) {
    protocol_error("worker: frame from unknown connection");
    return;
  }
  switch (static_cast<FrameType>(frame.header.type)) {
    case FrameType::kHelloAck: {
      HelloAckMsg ack;
      if (state_ != ConnState::kHandshakeWait ||
          !decode_hello_ack(frame.payload, ack) ||
          ack.node_index != node_index_) {
        protocol_error("worker: invalid hello ack");
        return;
      }
      state_ = ConnState::kRoundIdle;
      return;
    }
    case FrameType::kRoundConfig: {
      if (state_ != ConnState::kRoundIdle ||
          !decode_round_config(frame.payload, round_cfg_)) {
        protocol_error("worker: invalid round config");
        return;
      }
      if (round_cfg_.clients.empty()) return;  // nothing this wave
      ModelPullMsg pull;
      pull.round = round_cfg_.round;
      state_ = ConnState::kPulling;
      sink_.send(upstream_conn_, FrameType::kModelPull,
                 encode_model_pull(pull));
      return;
    }
    case FrameType::kModelState: {
      ModelStateMsg m;
      if (state_ != ConnState::kPulling ||
          !decode_model_state(frame.payload, m) ||
          m.round != round_cfg_.round) {
        protocol_error("worker: invalid model state");
        return;
      }
      state_ = ConnState::kTraining;
      // The scheduler's train step, verbatim: each client's stream as
      // fixed at dispatch, trained against the pulled global, then
      // poisoned when the fault plan corrupts it.
      for (const RemoteClient& c : round_cfg_.clients) {
        const auto id = static_cast<std::size_t>(c.client_id);
        Rng client_rng;
        client_rng.restore_state(c.stream);
        const Dataset& data = population_.client_dataset(id, slot_);
        const double t0 = monotonic_seconds();
        UpdatePushMsg push;
        push.round = round_cfg_.round;
        push.position = c.position;
        push.update = algorithm_.local_update(model_, m.state, id, data,
                                              client_rng);
        push.update.train_seconds = monotonic_seconds() - t0;
        if (c.corrupt) {
          FaultDecision poison;
          poison.corrupt_kind = c.corrupt_kind;
          poison.corrupt_pos = c.corrupt_pos;
          poison_update(push.update, poison);
        }
        sink_.send(upstream_conn_, FrameType::kUpdatePush,
                   encode_update_push(push));
      }
      ++rounds_trained_;
      state_ = ConnState::kRoundIdle;
      return;
    }
    case FrameType::kBye:
      state_ = ConnState::kDone;
      return;
    default:
      protocol_error(std::string("worker: unexpected frame type ") +
                     frame_type_name(
                         static_cast<FrameType>(frame.header.type)));
  }
}

// --------------------------------------------------------------- EdgeNode

EdgeNode::EdgeNode(const SplitFederatedAlgorithm& algorithm,
                   FrameSink& sink, std::size_t upstream_conn,
                   std::uint64_t edge_index, std::size_t num_workers)
    : algorithm_(algorithm),
      sink_(sink),
      upstream_conn_(upstream_conn),
      edge_index_(edge_index),
      num_workers_(num_workers) {
  HS_CHECK(algorithm_.supports_partial_aggregation(),
           "EdgeNode: algorithm does not support edge-tier partial "
           "aggregation");
  HS_CHECK(num_workers_ > 0, "EdgeNode: no workers");
  conn_of_worker_.assign(num_workers_, -1);
}

void EdgeNode::protocol_error(const std::string& message) {
  failed_ = true;
  if (error_.empty()) error_ = message;
  state_ = ConnState::kQuarantined;
}

void EdgeNode::start() {
  started_ = true;
  state_ = ConnState::kHandshakeWait;
  maybe_hello_upstream();
}

void EdgeNode::on_closed(std::size_t conn) {
  if (failed_ || state_ == ConnState::kDone) return;
  if (conn == upstream_conn_) {
    protocol_error("edge: upstream closed before Bye");
    return;
  }
  const auto it = worker_of_conn_.find(conn);
  if (it != worker_of_conn_.end()) {
    protocol_error("edge: lost worker " + std::to_string(it->second));
  }
}

void EdgeNode::maybe_hello_upstream() {
  if (!started_ || hello_sent_ || workers_connected_ < num_workers_) return;
  hello_sent_ = true;
  HelloMsg m;
  m.role = NodeRole::kEdge;
  m.node_index = edge_index_;
  sink_.send(upstream_conn_, FrameType::kHello, encode_hello(m));
}

void EdgeNode::on_frame(std::size_t conn, const Frame& frame) {
  if (failed_ || state_ == ConnState::kDone) return;
  if (conn == upstream_conn_) {
    handle_upstream(frame);
  } else {
    handle_worker(conn, frame);
  }
}

void EdgeNode::handle_upstream(const Frame& frame) {
  switch (static_cast<FrameType>(frame.header.type)) {
    case FrameType::kHelloAck: {
      HelloAckMsg ack;
      if (state_ != ConnState::kHandshakeWait ||
          !decode_hello_ack(frame.payload, ack) ||
          ack.node_index != edge_index_) {
        protocol_error("edge: invalid hello ack");
        return;
      }
      rounds_ = ack.rounds;
      state_ = ConnState::kRoundIdle;
      return;
    }
    case FrameType::kRoundConfig: {
      if (state_ != ConnState::kRoundIdle ||
          !decode_round_config(frame.payload, round_cfg_)) {
        protocol_error("edge: invalid round config");
        return;
      }
      const std::size_t count = round_cfg_.clients.size();
      if (count == 0) {
        // Empty block: reply immediately so the root's round can complete.
        DigestMsg msg;
        msg.round = round_cfg_.round;
        msg.edge_index = edge_index_;
        sink_.send(upstream_conn_, FrameType::kDigest, encode_digest(msg));
        return;
      }
      block_updates_.assign(count, ClientUpdate{});
      block_received_.assign(count, 0);
      block_pending_ = count;
      ModelPullMsg pull;
      pull.round = round_cfg_.round;
      state_ = ConnState::kPulling;
      sink_.send(upstream_conn_, FrameType::kModelPull,
                 encode_model_pull(pull));
      return;
    }
    case FrameType::kModelState: {
      ModelStateMsg m;
      if (state_ != ConnState::kPulling ||
          !decode_model_state(frame.payload, m) ||
          m.round != round_cfg_.round) {
        protocol_error("edge: invalid model state");
        return;
      }
      global_ = std::move(m.state);
      state_ = ConnState::kTraining;
      // Fan the block out over this edge's workers: the same block-partition
      // function, applied to the edge's own list. Workers keep the wave
      // positions, so updates reassemble by block offset unambiguously.
      const std::size_t count = round_cfg_.clients.size();
      for (std::size_t w = 0; w < num_workers_; ++w) {
        if (conn_of_worker_[w] == -1) {
          protocol_error("edge: worker never connected");
          return;
        }
        RoundConfigMsg sub;
        sub.round = round_cfg_.round;
        sub.n_selected = round_cfg_.n_selected;
        for (std::size_t j = 0; j < count; ++j) {
          if (edge_group_of(j, count, num_workers_) != w) continue;
          sub.clients.push_back(round_cfg_.clients[j]);
        }
        sink_.send(static_cast<std::size_t>(conn_of_worker_[w]),
                   FrameType::kRoundConfig, encode_round_config(sub));
      }
      return;
    }
    case FrameType::kBye:
      for (std::size_t w = 0; w < num_workers_; ++w) {
        if (conn_of_worker_[w] == -1) continue;
        sink_.send(static_cast<std::size_t>(conn_of_worker_[w]),
                   FrameType::kBye, encode_bye(ByeMsg{rounds_}));
      }
      state_ = ConnState::kDone;
      return;
    default:
      protocol_error("edge: unexpected upstream frame");
  }
}

void EdgeNode::handle_worker(std::size_t conn, const Frame& frame) {
  switch (static_cast<FrameType>(frame.header.type)) {
    case FrameType::kHello: {
      HelloMsg m;
      if (!decode_hello(frame.payload, m) || m.role != NodeRole::kWorker ||
          m.node_index >= num_workers_ ||
          conn_of_worker_[m.node_index] != -1 ||
          worker_of_conn_.count(conn) != 0) {
        protocol_error("edge: invalid worker hello");
        return;
      }
      conn_of_worker_[m.node_index] = static_cast<std::ptrdiff_t>(conn);
      worker_of_conn_[conn] = static_cast<std::size_t>(m.node_index);
      ++workers_connected_;
      // rounds_ may still be 0 if the upstream ack has not arrived yet;
      // workers treat the count as informational and terminate on Bye.
      HelloAckMsg ack;
      ack.node_index = m.node_index;
      ack.rounds = rounds_;
      sink_.send(conn, FrameType::kHelloAck, encode_hello_ack(ack));
      maybe_hello_upstream();
      return;
    }
    case FrameType::kModelPull: {
      ModelPullMsg m;
      if (!decode_model_pull(frame.payload, m) ||
          worker_of_conn_.count(conn) == 0 || state_ != ConnState::kTraining ||
          m.round != round_cfg_.round) {
        protocol_error("edge: invalid worker model pull");
        return;
      }
      ModelStateMsg reply;
      reply.round = round_cfg_.round;
      reply.state = global_;
      sink_.send(conn, FrameType::kModelState, encode_model_state(reply));
      return;
    }
    case FrameType::kUpdatePush: {
      UpdatePushMsg m;
      if (!decode_update_push(frame.payload, m) ||
          worker_of_conn_.count(conn) == 0 || state_ != ConnState::kTraining ||
          m.round != round_cfg_.round) {
        protocol_error("edge: invalid worker update push");
        return;
      }
      // Map the wave position back to this edge's block offset.
      std::size_t offset = round_cfg_.clients.size();
      for (std::size_t j = 0; j < round_cfg_.clients.size(); ++j) {
        if (round_cfg_.clients[j].position == m.position) {
          offset = j;
          break;
        }
      }
      if (offset == round_cfg_.clients.size() ||
          block_received_[offset] != 0) {
        protocol_error("edge: update for unassigned position");
        return;
      }
      block_updates_[offset] = std::move(m.update);
      block_received_[offset] = 1;
      if (--block_pending_ == 0) finish_block();
      return;
    }
    default:
      protocol_error("edge: unexpected worker frame");
  }
}

void EdgeNode::finish_block() {
  DigestMsg msg;
  msg.round = round_cfg_.round;
  msg.edge_index = edge_index_;
  std::vector<ClientUpdate> group;
  group.reserve(block_updates_.size());
  for (std::size_t j = 0; j < block_updates_.size(); ++j) {
    ClientUpdate& u = block_updates_[j];
    const bool ok = validate_update(u);
    WireUpdateMeta meta;
    // Mirrors the scheduler's disposition: a clean update reports through
    // make_observation (client_id from the update), a quarantined one
    // through the selection list.
    meta.client_id = ok ? u.client_id : round_cfg_.clients[j].client_id;
    meta.position = round_cfg_.clients[j].position;
    meta.flags = u.flags;
    meta.quarantined = ok ? 0 : 1;
    meta.update_bytes = update_payload_bytes(u);
    meta.train_seconds = u.train_seconds;
    if (ok) {
      meta.weight = u.weight;
      meta.train_loss = u.train_loss;
      group.push_back(std::move(u));
    }
    msg.metas.push_back(meta);
  }
  if (!group.empty()) {
    msg.has_digest = 1;
    msg.digest = algorithm_.partial_aggregate(global_, group);
  }
  sink_.send(upstream_conn_, FrameType::kDigest, encode_digest(msg));
  state_ = ConnState::kRoundIdle;
}

}  // namespace hetero::net
