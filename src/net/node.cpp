#include "net/node.h"

#include <chrono>
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

const char* conn_state_name(ConnState state) {
  switch (state) {
    case ConnState::kHandshakeWait: return "handshake_wait";
    case ConnState::kRoundIdle: return "round_idle";
    case ConnState::kPulling: return "pulling";
    case ConnState::kTraining: return "training";
    case ConnState::kPushing: return "pushing";
    case ConnState::kDone: return "done";
    case ConnState::kQuarantined: return "quarantined";
  }
  return "unknown";
}

// ------------------------------------------------------------- RootServer

RootServer::RootServer(Model& model, SplitFederatedAlgorithm& algorithm,
                       const ClientProvider& population,
                       const NetSimConfig& cfg, FrameSink& sink)
    : model_(model),
      algorithm_(algorithm),
      population_(population),
      cfg_(cfg),
      sink_(sink),
      rng_(cfg.seed) {
  HS_CHECK(algorithm_.stateless_client_phase(),
           "RootServer: this algorithm's client phase reads server-held "
           "state and cannot run on remote workers");
  HS_CHECK(cfg_.rounds > 0, "RootServer: rounds must be positive");
  HS_CHECK(cfg_.num_downstream > 0, "RootServer: no downstream nodes");
  if (cfg_.edge_groups > 0) {
    HS_CHECK(cfg_.edge_groups == cfg_.num_downstream,
             "RootServer: edge_groups must equal the edge-node count");
    HS_CHECK(algorithm_.supports_partial_aggregation(),
             "RootServer: algorithm does not support edge-tier partial "
             "aggregation");
  }
  const std::size_t n = population_.num_clients();
  HS_CHECK(n > 0, "RootServer: no clients");
  HS_CHECK(cfg_.clients_per_round > 0 && cfg_.clients_per_round <= n,
           "RootServer: bad clients_per_round");
  algorithm_.init(model_, n);
  conn_of_node_.assign(cfg_.num_downstream, -1);
  node_state_.assign(cfg_.num_downstream, ConnState::kHandshakeWait);
  result_.runtime.threads = 1;
}

ConnState RootServer::node_state(std::size_t index) const {
  return index < node_state_.size() ? node_state_[index]
                                    : ConnState::kQuarantined;
}

void RootServer::protocol_error(std::size_t conn,
                                const std::string& message) {
  ++frames_rejected_;
  if (!failed_) {
    failed_ = true;
    error_ = message;
  }
  const auto it = node_of_conn_.find(conn);
  if (it != node_of_conn_.end()) {
    node_state_[it->second] = ConnState::kQuarantined;
  }
}

void RootServer::on_frame(std::size_t conn, const Frame& frame) {
  if (done_ || failed_) return;
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
      protocol_error(conn, std::string("root: unexpected frame type ") +
                               frame_type_name(
                                   static_cast<FrameType>(frame.header.type)));
  }
}

void RootServer::handle_hello(std::size_t conn, const Frame& frame) {
  HelloMsg m;
  if (!decode_hello(frame.payload, m)) {
    protocol_error(conn, "root: malformed hello");
    return;
  }
  const NodeRole expected =
      cfg_.edge_groups > 0 ? NodeRole::kEdge : NodeRole::kWorker;
  if (m.role != expected || m.node_index >= cfg_.num_downstream ||
      conn_of_node_[m.node_index] != -1 || node_of_conn_.count(conn) != 0) {
    protocol_error(conn, "root: invalid hello");
    return;
  }
  conn_of_node_[m.node_index] = static_cast<std::ptrdiff_t>(conn);
  node_of_conn_[conn] = static_cast<std::size_t>(m.node_index);
  node_state_[m.node_index] = ConnState::kRoundIdle;
  HelloAckMsg ack;
  ack.node_index = m.node_index;
  ack.rounds = cfg_.rounds;
  sink_.send(conn, FrameType::kHelloAck, encode_hello_ack(ack));
  if (++hellos_ == cfg_.num_downstream) start_round(0);
}

void RootServer::start_round(std::size_t round) {
  round_ = round;
  round_start_seconds_ = monotonic_seconds();
  const std::size_t k = cfg_.clients_per_round;
  // Exactly the monolithic sync loop's draws: sample on the run RNG, then
  // a const fork keyed on the round — the fork does not advance rng_.
  selected_ = rng_.sample_without_replacement(population_.num_clients(), k);
  round_rng_ = rng_.fork(round).save_state();
  if (cfg_.observer) cfg_.observer->on_round_begin(round, selected_);
  global_ = model_.state();

  if (cfg_.edge_groups == 0) {
    updates_.assign(k, ClientUpdate{});
    update_received_.assign(k, 0);
    updates_pending_ = k;
  } else {
    digests_.assign(cfg_.edge_groups, DigestMsg{});
    digest_received_.assign(cfg_.edge_groups, 0);
    digests_pending_ = cfg_.edge_groups;
  }

  // One config per downstream node; the position partition is the same
  // edge_group_of blocks the aggregation uses, so in edge mode each edge
  // receives exactly the clients whose digests it owns.
  for (std::size_t d = 0; d < cfg_.num_downstream; ++d) {
    RoundConfigMsg msg;
    msg.round = round;
    msg.round_rng = round_rng_;
    msg.n_selected = k;
    msg.edge_groups = cfg_.edge_groups;
    for (std::size_t pos = 0; pos < k; ++pos) {
      if (edge_group_of(pos, k, cfg_.num_downstream) != d) continue;
      msg.client_ids.push_back(selected_[pos]);
      msg.positions.push_back(pos);
    }
    sink_.send(static_cast<std::size_t>(conn_of_node_[d]),
               FrameType::kRoundConfig, encode_round_config(msg));
    node_state_[d] = ConnState::kPulling;
  }
}

void RootServer::handle_model_pull(std::size_t conn, const Frame& frame) {
  ModelPullMsg m;
  const auto node = node_of_conn_.find(conn);
  if (!decode_model_pull(frame.payload, m) || node == node_of_conn_.end() ||
      m.round != round_) {
    protocol_error(conn, "root: invalid model pull");
    return;
  }
  ModelStateMsg reply;
  reply.round = round_;
  reply.state = global_;
  sink_.send(conn, FrameType::kModelState, encode_model_state(reply));
  node_state_[node->second] = ConnState::kTraining;
}

void RootServer::handle_update_push(std::size_t conn, const Frame& frame) {
  UpdatePushMsg m;
  const auto node = node_of_conn_.find(conn);
  if (!decode_update_push(frame.payload, m) || node == node_of_conn_.end() ||
      cfg_.edge_groups > 0 || m.round != round_ ||
      m.position >= selected_.size() || update_received_[m.position] != 0) {
    protocol_error(conn, "root: invalid update push");
    return;
  }
  updates_[m.position] = std::move(m.update);
  update_received_[m.position] = 1;
  node_state_[node->second] = ConnState::kPushing;
  if (--updates_pending_ == 0) finish_round_flat();
}

void RootServer::handle_digest(std::size_t conn, const Frame& frame) {
  DigestMsg m;
  const auto node = node_of_conn_.find(conn);
  if (!decode_digest(frame.payload, m) || node == node_of_conn_.end() ||
      cfg_.edge_groups == 0 || m.round != round_ ||
      m.edge_index != node->second || digest_received_[m.edge_index] != 0) {
    protocol_error(conn, "root: invalid digest");
    return;
  }
  // The metas must be exactly this edge's block: its positions, in order,
  // once each — and has_digest must match the survivor count.
  const std::size_t k = selected_.size();
  std::size_t expected = 0;
  for (std::size_t pos = 0; pos < k; ++pos) {
    if (edge_group_of(pos, k, cfg_.edge_groups) == m.edge_index) ++expected;
  }
  std::size_t survivors = 0;
  std::uint64_t prev = 0;
  for (std::size_t j = 0; j < m.metas.size(); ++j) {
    const WireUpdateMeta& meta = m.metas[j];
    if (meta.position >= k ||
        edge_group_of(meta.position, k, cfg_.edge_groups) != m.edge_index ||
        (j > 0 && meta.position <= prev)) {
      protocol_error(conn, "root: digest meta positions invalid");
      return;
    }
    prev = meta.position;
    if (!meta.quarantined) ++survivors;
  }
  if (m.metas.size() != expected ||
      (survivors > 0) != (m.has_digest != 0)) {
    protocol_error(conn, "root: digest block mismatch");
    return;
  }
  digests_[m.edge_index] = std::move(m);
  digest_received_[digests_[m.edge_index].edge_index] = 1;
  node_state_[node->second] = ConnState::kPushing;
  if (--digests_pending_ == 0) finish_round_edges();
}

void RootServer::finish_round_flat() {
  const std::size_t n = selected_.size();
  RoundContext ctx;
  ctx.round = round_;
  ctx.observer = cfg_.observer;
  // Zero-fault disposition pass, mirroring ClientExecutor::run_split:
  // validate each update, emit one client_end per position in `selected`
  // order, then aggregate the survivors.
  std::size_t quarantined = 0;
  std::vector<ClientUpdate> survivors;
  std::vector<std::size_t> survivor_pos;
  survivors.reserve(n);
  survivor_pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ClientUpdate& u = updates_[i];
    const bool ok = validate_update(u);
    ClientObservation obs;
    if (ok) {
      obs = make_observation(u, i);
    } else {
      ++quarantined;
      obs.client_id = selected_[i];
      obs.order = i;
      obs.flags = u.flags;
      obs.update_bytes = static_cast<std::size_t>(update_payload_bytes(u));
      obs.train_seconds = u.train_seconds;
      obs.fault = static_cast<unsigned>(FaultKind::kQuarantined);
    }
    ctx.finish_client(obs);
    if (ok) {
      survivors.push_back(std::move(u));
      survivor_pos.push_back(i);
    }
  }
  const bool aborted = survivors.empty();
  RoundStats stats;
  if (!aborted) {
    stats = algorithm_.aggregate(model_, global_, survivors);
  } else {
    model_.set_state(global_);
  }
  result_.runtime.client_seconds_sum += ctx.client_seconds_sum;
  if (ctx.client_seconds_max > result_.runtime.client_seconds_max) {
    result_.runtime.client_seconds_max = ctx.client_seconds_max;
  }
  finish_round_common(std::move(stats), quarantined, aborted);
}

void RootServer::finish_round_edges() {
  RoundContext ctx;
  ctx.round = round_;
  ctx.observer = cfg_.observer;
  // Per-client events and the flat round summary come from the forwarded
  // metas (edge blocks are contiguous ascending position ranges, so edge
  // order == `selected` order); the model update comes from the digests —
  // the same two-level fold hierarchical_aggregate runs in process.
  std::size_t quarantined = 0;
  std::vector<ClientUpdate> stubs;  // scalar stand-ins for summarize_updates
  stubs.reserve(selected_.size());
  for (const DigestMsg& digest : digests_) {
    for (const WireUpdateMeta& meta : digest.metas) {
      ClientObservation obs;
      obs.client_id = meta.client_id;
      obs.order = static_cast<std::size_t>(meta.position);
      obs.flags = meta.flags;
      obs.update_bytes = static_cast<std::size_t>(meta.update_bytes);
      obs.train_seconds = meta.train_seconds;
      if (meta.quarantined) {
        ++quarantined;
        obs.fault = static_cast<unsigned>(FaultKind::kQuarantined);
      } else {
        obs.weight = meta.weight;
        obs.train_loss = meta.train_loss;
        ClientUpdate stub;
        stub.client_id = meta.client_id;
        stub.weight = meta.weight;
        stub.train_loss = meta.train_loss;
        stub.payload_bytes = meta.update_bytes;
        stubs.push_back(std::move(stub));
      }
      ctx.finish_client(obs);
    }
  }
  const bool aborted = stubs.empty();
  RoundStats stats;
  if (!aborted) {
    stats = summarize_updates(stubs, model_.state_size());
    std::vector<ClientUpdate> folds;
    folds.reserve(digests_.size());
    for (DigestMsg& digest : digests_) {
      if (digest.has_digest) folds.push_back(std::move(digest.digest));
    }
    const RoundStats agg = algorithm_.aggregate(model_, global_, folds);
    for (const auto& [key, value] : agg.extras) stats.extras[key] = value;
    stats.extras["net.edges"] = static_cast<double>(cfg_.edge_groups);
  } else {
    model_.set_state(global_);
  }
  result_.runtime.client_seconds_sum += ctx.client_seconds_sum;
  if (ctx.client_seconds_max > result_.runtime.client_seconds_max) {
    result_.runtime.client_seconds_max = ctx.client_seconds_max;
  }
  finish_round_common(std::move(stats), quarantined, aborted);
}

void RootServer::finish_round_common(RoundStats stats, std::size_t quarantined,
                                     bool aborted) {
  const std::size_t n = selected_.size();
  stats.bytes_down = static_cast<std::uint64_t>(n) *
                     static_cast<std::uint64_t>(model_.state_size()) *
                     sizeof(float);
  if (quarantined > 0 || aborted) {
    stats.extras["fault.dropped"] = 0.0;
    stats.extras["fault.quarantined"] = static_cast<double>(quarantined);
    stats.extras["fault.stragglers"] = 0.0;
    stats.extras["fault.retries"] = 0.0;
    stats.extras["fault.aborted"] = aborted ? 1.0 : 0.0;
  }
  if (cfg_.trace_extras && cfg_.counters != nullptr) {
    stats.extras["net.bytes_rx"] =
        static_cast<double>(cfg_.counters->bytes_rx);
    stats.extras["net.bytes_tx"] =
        static_cast<double>(cfg_.counters->bytes_tx);
    stats.extras["net.frames_rx"] =
        static_cast<double>(cfg_.counters->frames_rx);
    stats.extras["net.frames_tx"] =
        static_cast<double>(cfg_.counters->frames_tx);
  }
  stats.round_seconds = monotonic_seconds() - round_start_seconds_;
  if (cfg_.observer) cfg_.observer->on_round_end(round_, stats);
  result_.train_loss_history.push_back(stats.mean_train_loss);
  result_.runtime.round_seconds.push_back(stats.round_seconds);
  result_.runtime.total_seconds += stats.round_seconds;
  result_.runtime.round_virtual_seconds.push_back(0.0);
  result_.runtime.clients_quarantined += quarantined;
  result_.runtime.rounds_aborted += aborted ? 1 : 0;

  const std::size_t next = round_ + 1;
  if (cfg_.eval_every > 0 && next % cfg_.eval_every == 0 &&
      next < cfg_.rounds) {
    DeviceMetrics checkpoint = evaluate_per_device(model_, population_);
    if (cfg_.observer) cfg_.observer->on_eval(next, checkpoint);
    result_.checkpoints.emplace_back(next, std::move(checkpoint));
  }
  for (std::size_t d = 0; d < cfg_.num_downstream; ++d) {
    node_state_[d] = ConnState::kRoundIdle;
  }
  if (next < cfg_.rounds) {
    start_round(next);
    return;
  }
  result_.final_metrics = evaluate_per_device(model_, population_);
  if (cfg_.observer) cfg_.observer->on_eval(cfg_.rounds, result_.final_metrics);
  ByeMsg bye;
  bye.rounds_done = cfg_.rounds;
  for (std::size_t d = 0; d < cfg_.num_downstream; ++d) {
    sink_.send(static_cast<std::size_t>(conn_of_node_[d]), FrameType::kBye,
               encode_bye(bye));
    node_state_[d] = ConnState::kDone;
  }
  done_ = true;
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
      if (round_cfg_.client_ids.empty()) return;  // nothing this round
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
      // The monolithic client loop, verbatim: restore the round RNG the
      // root shipped, fork per client id, train against the pulled global.
      Rng round_rng;
      round_rng.restore_state(round_cfg_.round_rng);
      std::vector<UpdatePushMsg> pushes;
      pushes.reserve(round_cfg_.client_ids.size());
      for (std::size_t j = 0; j < round_cfg_.client_ids.size(); ++j) {
        const std::size_t id =
            static_cast<std::size_t>(round_cfg_.client_ids[j]);
        Rng client_rng = round_rng.fork(id);
        const Dataset& data = population_.client_dataset(id, slot_);
        const double t0 = monotonic_seconds();
        UpdatePushMsg push;
        push.round = round_cfg_.round;
        push.position = round_cfg_.positions[j];
        push.update = algorithm_.local_update(model_, m.state, id, data,
                                              client_rng);
        push.update.train_seconds = monotonic_seconds() - t0;
        pushes.push_back(std::move(push));
      }
      state_ = ConnState::kPushing;
      for (const UpdatePushMsg& push : pushes) {
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
      const std::size_t count = round_cfg_.client_ids.size();
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
      // function, applied to the edge's own list. Workers keep the GLOBAL
      // positions, so updates reassemble by block offset unambiguously.
      const std::size_t count = round_cfg_.client_ids.size();
      for (std::size_t w = 0; w < num_workers_; ++w) {
        if (conn_of_worker_[w] == -1) {
          protocol_error("edge: worker never connected");
          return;
        }
        RoundConfigMsg sub;
        sub.round = round_cfg_.round;
        sub.round_rng = round_cfg_.round_rng;
        sub.n_selected = round_cfg_.n_selected;
        sub.edge_groups = round_cfg_.edge_groups;
        for (std::size_t j = 0; j < count; ++j) {
          if (edge_group_of(j, count, num_workers_) != w) continue;
          sub.client_ids.push_back(round_cfg_.client_ids[j]);
          sub.positions.push_back(round_cfg_.positions[j]);
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
      // Map the global position back to this edge's block offset.
      std::size_t offset = round_cfg_.positions.size();
      for (std::size_t j = 0; j < round_cfg_.positions.size(); ++j) {
        if (round_cfg_.positions[j] == m.position) {
          offset = j;
          break;
        }
      }
      if (offset == round_cfg_.positions.size() ||
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
    // Mirrors the executor's disposition: a clean update reports through
    // make_observation (client_id from the update), a quarantined one
    // through the selection list.
    meta.client_id = ok ? u.client_id : round_cfg_.client_ids[j];
    meta.position = round_cfg_.positions[j];
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
  state_ = ConnState::kPushing;
  sink_.send(upstream_conn_, FrameType::kDigest, encode_digest(msg));
  state_ = ConnState::kRoundIdle;
}

}  // namespace hetero::net
