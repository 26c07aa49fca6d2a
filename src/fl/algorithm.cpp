#include "fl/algorithm.h"

#include <cmath>
#include <string>

#include "fl/eval.h"
#include "util/rng.h"

namespace hetero {
namespace {

/// Batches per local update for a dataset under a config (loader keeps the
/// final short batch).
std::size_t local_steps(const Dataset& data, const LocalTrainConfig& cfg) {
  const std::size_t per_epoch =
      (data.size() + cfg.batch_size - 1) / cfg.batch_size;
  return per_epoch * cfg.epochs;
}

}  // namespace

Tensor weighted_average_states(const std::vector<Tensor>& states,
                               const std::vector<double>& weights) {
  HS_CHECK(!states.empty() && states.size() == weights.size(),
           "weighted_average_states: size mismatch");
  double total = 0.0;
  for (double w : weights) {
    HS_CHECK(w >= 0.0, "weighted_average_states: negative weight");
    total += w;
  }
  HS_CHECK(total > 0.0, "weighted_average_states: zero total weight");
  Tensor avg(states[0].shape());
  for (std::size_t k = 0; k < states.size(); ++k) {
    HS_CHECK(states[k].same_shape(avg),
             "weighted_average_states: state shape mismatch");
    avg.axpy(static_cast<float>(weights[k] / total), states[k]);
  }
  return avg;
}

std::uint64_t update_payload_bytes(const ClientUpdate& update) {
  if (update.payload_bytes != 0) return update.payload_bytes;
  return static_cast<std::uint64_t>(
      (update.state.size() + update.aux.size()) * sizeof(float));
}

bool validate_update(const ClientUpdate& update) {
  if (!std::isfinite(update.weight) || update.weight < 0.0) return false;
  if (!std::isfinite(update.train_loss)) return false;
  if (!std::isfinite(update.aux_scalar)) return false;
  for (const float v : update.state.flat()) {
    if (!std::isfinite(v)) return false;
  }
  for (const float v : update.aux.flat()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

RoundStats summarize_updates(const std::vector<ClientUpdate>& updates,
                             std::size_t global_state_size) {
  HS_CHECK(!updates.empty(), "summarize_updates: no client updates");
  RoundStats stats;
  stats.num_clients = updates.size();
  stats.min_train_loss = updates.front().train_loss;
  stats.max_train_loss = updates.front().train_loss;
  double loss_sum = 0.0;
  for (const ClientUpdate& u : updates) {
    loss_sum += u.train_loss * u.weight;
    stats.weight_sum += u.weight;
    stats.min_train_loss = std::min(stats.min_train_loss, u.train_loss);
    stats.max_train_loss = std::max(stats.max_train_loss, u.train_loss);
    stats.bytes_up += update_payload_bytes(u);
  }
  HS_CHECK(stats.weight_sum > 0.0, "summarize_updates: zero total weight");
  stats.mean_train_loss = loss_sum / stats.weight_sum;
  stats.bytes_down = static_cast<std::uint64_t>(updates.size()) *
                     static_cast<std::uint64_t>(global_state_size) *
                     sizeof(float);
  return stats;
}

double SplitFederatedAlgorithm::staleness_weight(std::size_t staleness,
                                                 double exponent) const {
  // s == 0 (and exponent == 0) must return exactly 1.0 — not pow's
  // approximation of it — so a zero-staleness flush multiplies weights by
  // the identity and stays bit-identical to sync FedAvg aggregation.
  if (staleness == 0 || exponent == 0.0) return 1.0;
  return std::pow(1.0 + static_cast<double>(staleness), -exponent);
}

ClientUpdate SplitFederatedAlgorithm::partial_aggregate(
    const Tensor& global, std::vector<ClientUpdate>& group) const {
  (void)global;
  HS_CHECK(!group.empty(), "partial_aggregate: empty group");
  ClientUpdate digest;
  digest.client_id = group.front().client_id;
  std::vector<Tensor> states;
  std::vector<double> weights;
  states.reserve(group.size());
  weights.reserve(group.size());
  double weight_sum = 0.0;
  double loss_sum = 0.0;
  for (ClientUpdate& u : group) {
    weight_sum += u.weight;
    loss_sum += u.train_loss * u.weight;
    states.push_back(std::move(u.state));
    weights.push_back(u.weight);
  }
  digest.state = weighted_average_states(states, weights);
  digest.weight = weight_sum;
  digest.train_loss = loss_sum / weight_sum;
  return digest;
}

std::size_t edge_group_of(std::size_t position, std::size_t n_selected,
                          std::size_t edge_groups) {
  HS_CHECK(edge_groups > 0, "edge_group_of: zero edge groups");
  HS_CHECK(position < n_selected, "edge_group_of: position out of range");
  return position * edge_groups / n_selected;
}

RoundStats hierarchical_aggregate(Model& model, SplitFederatedAlgorithm& split,
                                  const Tensor& global,
                                  std::vector<ClientUpdate>& updates,
                                  const std::vector<std::size_t>& positions,
                                  std::size_t n_selected,
                                  std::size_t edge_groups) {
  HS_CHECK(split.supports_partial_aggregation(),
           "hierarchical_aggregate: algorithm does not support edge-tier "
           "partial aggregation");
  HS_CHECK(!updates.empty() && updates.size() == positions.size(),
           "hierarchical_aggregate: updates/positions mismatch");
  // Client-level summary before any state tensor moves: the round's
  // loss/weight/byte stats describe clients, not digests.
  RoundStats stats = summarize_updates(updates, model.state_size());
  std::vector<std::vector<ClientUpdate>> groups(edge_groups);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    groups[edge_group_of(positions[i], n_selected, edge_groups)].push_back(
        std::move(updates[i]));
  }
  std::vector<ClientUpdate> digests;
  digests.reserve(edge_groups);
  for (std::vector<ClientUpdate>& group : groups) {
    // An edge whose whole block dropped out contributes nothing (the
    // renormalization over the remaining digests absorbs its weight).
    if (group.empty()) continue;
    digests.push_back(split.partial_aggregate(global, group));
  }
  aggregate_digests(model, split, global, digests, edge_groups, stats);
  return stats;
}

void aggregate_digests(Model& model, SplitFederatedAlgorithm& split,
                       const Tensor& global,
                       std::vector<ClientUpdate>& digests,
                       std::size_t edge_groups, RoundStats& stats) {
  const RoundStats agg = split.aggregate(model, global, digests);
  for (const auto& [key, value] : agg.extras) stats.extras[key] = value;
  stats.extras["net.edges"] = static_cast<double>(edge_groups);
}

// ------------------------------------------------------------------ FedAvg

ClientUpdate FedAvg::local_update(Model& model, const Tensor& global,
                                  std::size_t client_id, const Dataset& data,
                                  Rng& client_rng) const {
  model.set_state(global);
  const float loss = local_train(model, data, cfg_, client_rng);
  ClientUpdate u;
  u.client_id = client_id;
  u.state = model.state();
  u.weight = static_cast<double>(data.size());
  u.train_loss = static_cast<double>(loss);
  return u;
}

RoundStats FedAvg::aggregate(Model& model, const Tensor& global,
                             std::vector<ClientUpdate>& updates) {
  (void)global;
  HS_CHECK(!updates.empty(), "FedAvg: no client updates");
  RoundStats stats = summarize_updates(updates, model.state_size());
  std::vector<Tensor> states;
  std::vector<double> weights;
  states.reserve(updates.size());
  for (ClientUpdate& u : updates) {
    states.push_back(std::move(u.state));
    weights.push_back(u.weight);
  }
  model.set_state(weighted_average_states(states, weights));
  return stats;
}

// ----------------------------------------------------------------- QFedAvg

ClientUpdate QFedAvg::local_update(Model& model, const Tensor& global,
                                   std::size_t client_id, const Dataset& data,
                                   Rng& client_rng) const {
  model.set_state(global);
  // F_k: loss of the *global* model on the client's data.
  const double fk =
      std::max(1e-10, evaluate_loss(model, data, cfg_.batch_size));
  const float train_loss = local_train(model, data, cfg_, client_rng);
  // Delta-w scaled to a gradient estimate: L * (w_global - w_k), with the
  // Lipschitz proxy L = 1/lr.
  Tensor dw = global - model.state();
  dw *= static_cast<float>(1.0 / static_cast<double>(cfg_.lr));
  ClientUpdate u;
  u.client_id = client_id;
  u.weight = static_cast<double>(data.size());
  u.train_loss = static_cast<double>(train_loss);
  u.aux = std::move(dw);
  u.aux_scalar = fk;
  return u;
}

RoundStats QFedAvg::aggregate(Model& model, const Tensor& global,
                              std::vector<ClientUpdate>& updates) {
  HS_CHECK(!updates.empty(), "QFedAvg: no client updates");
  RoundStats stats = summarize_updates(updates, model.state_size());
  const double big_l = 1.0 / static_cast<double>(cfg_.lr);
  Tensor delta_sum(global.shape());
  double h_sum = 0.0;
  for (const ClientUpdate& u : updates) {
    const Tensor& dw = u.aux;
    const double fk = u.aux_scalar;
    const double norm2 = static_cast<double>(dw.norm()) * dw.norm();
    const double fq = std::pow(fk, q_);
    delta_sum.axpy(static_cast<float>(fq), dw);
    h_sum += q_ * std::pow(fk, q_ - 1.0) * norm2 + big_l * fq;
  }
  HS_CHECK(h_sum > 0.0, "QFedAvg: degenerate aggregation weights");
  Tensor new_state = global;
  new_state.axpy(static_cast<float>(-1.0 / h_sum), delta_sum);
  model.set_state(new_state);
  stats.extras["qfedavg.h_sum"] = h_sum;
  return stats;
}

// ----------------------------------------------------------------- FedProx

ClientUpdate FedProx::local_update(Model& model, const Tensor& global,
                                   std::size_t client_id, const Dataset& data,
                                   Rng& client_rng) const {
  model.set_state(global);
  const Tensor global_params = model.params();

  TrainHooks hooks;
  hooks.post_grad = [this, &global_params](Model& m) {
    // grad += mu * (w - w_global), walked over the flat parameter layout.
    ParamGroup g = m.net().param_group();
    std::size_t off = 0;
    for (std::size_t t = 0; t < g.params.size(); ++t) {
      Tensor& p = *g.params[t];
      Tensor& gr = *g.grads[t];
      for (std::size_t j = 0; j < p.size(); ++j) {
        gr[j] += mu_ * (p[j] - global_params[off + j]);
      }
      off += p.size();
    }
  };

  const float loss = local_train(model, data, cfg_, client_rng, hooks);
  ClientUpdate u;
  u.client_id = client_id;
  u.state = model.state();
  u.weight = static_cast<double>(data.size());
  u.train_loss = static_cast<double>(loss);
  return u;
}

RoundStats FedProx::aggregate(Model& model, const Tensor& global,
                              std::vector<ClientUpdate>& updates) {
  (void)global;
  HS_CHECK(!updates.empty(), "FedProx: no client updates");
  RoundStats stats = summarize_updates(updates, model.state_size());
  std::vector<Tensor> states;
  std::vector<double> weights;
  states.reserve(updates.size());
  for (ClientUpdate& u : updates) {
    states.push_back(std::move(u.state));
    weights.push_back(u.weight);
  }
  model.set_state(weighted_average_states(states, weights));
  return stats;
}

// ----------------------------------------------------------------- FedAvgM

void FedAvgM::init(Model& model, std::size_t num_clients) {
  (void)num_clients;
  velocity_ = Tensor({model.state_size()});
}

RoundStats FedAvgM::aggregate(Model& model, const Tensor& global,
                              std::vector<ClientUpdate>& updates) {
  HS_CHECK(!updates.empty(), "FedAvgM: no client updates");
  HS_CHECK(!velocity_.empty(), "FedAvgM: init() not called");
  RoundStats stats = summarize_updates(updates, model.state_size());
  std::vector<Tensor> states;
  std::vector<double> weights;
  states.reserve(updates.size());
  for (ClientUpdate& u : updates) {
    states.push_back(std::move(u.state));
    weights.push_back(u.weight);
  }
  // Pseudo-gradient: the (negated) average client movement.
  Tensor avg = weighted_average_states(states, weights);
  Tensor pseudo_grad = global - avg;
  velocity_ *= beta_;
  velocity_ += pseudo_grad;
  Tensor new_state = global - velocity_;
  model.set_state(new_state);
  stats.extras["fedavgm.velocity_norm"] =
      static_cast<double>(velocity_.norm());
  return stats;
}

void FedAvgM::save_state(AlgorithmCheckpoint& out) const {
  if (!velocity_.empty()) out.tensors["fedavgm.velocity"] = velocity_;
}

void FedAvgM::load_state(const AlgorithmCheckpoint& in) {
  const auto it = in.tensors.find("fedavgm.velocity");
  if (it != in.tensors.end()) velocity_ = it->second;
}

// ---------------------------------------------------------------- Scaffold

void Scaffold::init(Model& model, std::size_t num_clients) {
  num_clients_ = num_clients;
  c_global_ = Tensor({model.num_params()});
  c_clients_.assign(num_clients, Tensor());
}

ClientUpdate Scaffold::local_update(Model& model, const Tensor& global,
                                    std::size_t client_id, const Dataset& data,
                                    Rng& client_rng) const {
  HS_CHECK(num_clients_ > 0, "Scaffold: init() not called");
  HS_CHECK(client_id < c_clients_.size(), "Scaffold: client id out of range");
  model.set_state(global);
  const Tensor global_params = model.params();
  const std::size_t p = global_params.size();

  // A never-trained client's control variate is zeros; materialize a local
  // copy instead of lazily writing the member (the member only changes in
  // aggregate, so this function stays safe to run concurrently).
  const Tensor ci =
      c_clients_[client_id].empty() ? Tensor({p}) : c_clients_[client_id];

  // Correction applied to every gradient step: + (c - c_i).
  Tensor correction = c_global_ - ci;
  TrainHooks hooks;
  hooks.post_grad = [&correction](Model& m) {
    ParamGroup g = m.net().param_group();
    std::size_t off = 0;
    for (std::size_t t = 0; t < g.grads.size(); ++t) {
      Tensor& gr = *g.grads[t];
      for (std::size_t j = 0; j < gr.size(); ++j) {
        gr[j] += correction[off + j];
      }
      off += gr.size();
    }
  };

  const float loss = local_train(model, data, cfg_, client_rng, hooks);
  const Tensor y = model.params();
  const std::size_t k = local_steps(data, cfg_);

  // Option II control-variate update:
  // c_i+ = c_i - c + (w_global - y) / (K * lr).
  Tensor ci_new = ci - c_global_;
  Tensor drift = global_params - y;
  drift *= 1.0f / (static_cast<float>(k) * cfg_.lr);
  ci_new += drift;

  ClientUpdate u;
  u.client_id = client_id;
  u.state = model.state();
  u.weight = static_cast<double>(data.size());
  u.train_loss = static_cast<double>(loss);
  u.aux = std::move(ci_new);
  return u;
}

RoundStats Scaffold::aggregate(Model& model, const Tensor& global,
                               std::vector<ClientUpdate>& updates) {
  HS_CHECK(!updates.empty(), "Scaffold: no client updates");
  HS_CHECK(num_clients_ > 0, "Scaffold: init() not called");
  RoundStats stats = summarize_updates(updates, model.state_size());
  const std::size_t p = c_global_.size();
  // The flat state layout is params followed by buffers, so the first p
  // entries of `global` are the round-start parameters.
  Tensor global_params({p});
  for (std::size_t j = 0; j < p; ++j) global_params[j] = global[j];

  Tensor dw_sum({p});
  Tensor dc_sum({p});
  std::vector<Tensor> buffer_states;
  buffer_states.reserve(updates.size());

  for (ClientUpdate& u : updates) {
    // dw = y - w_global over the parameter prefix of the returned state.
    for (std::size_t j = 0; j < p; ++j) {
      dw_sum[j] += u.state[j] - global_params[j];
    }
    const Tensor ci_old =
        c_clients_[u.client_id].empty() ? Tensor({p}) : c_clients_[u.client_id];
    dc_sum += u.aux - ci_old;
    c_clients_[u.client_id] = std::move(u.aux);
    buffer_states.push_back(std::move(u.state));
  }

  // Server update: params move by the mean client delta; buffers (BN stats)
  // are plain-averaged; c accumulates (1/N) * sum dc.
  const float inv_s = 1.0f / static_cast<float>(updates.size());
  Tensor new_params = global_params;
  new_params.axpy(inv_s, dw_sum);
  std::vector<double> eq_weights(buffer_states.size(), 1.0);
  Tensor avg_state = weighted_average_states(buffer_states, eq_weights);
  model.set_state(avg_state);
  model.set_params(new_params);
  c_global_.axpy(1.0f / static_cast<float>(num_clients_), dc_sum);
  stats.extras["scaffold.c_global_norm"] =
      static_cast<double>(c_global_.norm());
  stats.extras["scaffold.dc_norm"] = static_cast<double>(dc_sum.norm());
  return stats;
}

void Scaffold::save_state(AlgorithmCheckpoint& out) const {
  if (!c_global_.empty()) out.tensors["scaffold.c_global"] = c_global_;
  out.words["scaffold.num_clients"] = num_clients_;
  for (std::size_t i = 0; i < c_clients_.size(); ++i) {
    if (!c_clients_[i].empty()) {
      out.tensors["scaffold.c." + std::to_string(i)] = c_clients_[i];
    }
  }
}

void Scaffold::load_state(const AlgorithmCheckpoint& in) {
  // load_state runs after init(), so c_clients_ is already sized for the
  // population; only the control variates recorded at save time are restored,
  // the rest stay empty exactly as they were mid-run.
  const auto cg = in.tensors.find("scaffold.c_global");
  if (cg != in.tensors.end()) c_global_ = cg->second;
  const auto nc = in.words.find("scaffold.num_clients");
  if (nc != in.words.end()) {
    HS_CHECK(nc->second == num_clients_,
             "Scaffold::load_state: population size mismatch");
  }
  for (std::size_t i = 0; i < c_clients_.size(); ++i) {
    const auto it = in.tensors.find("scaffold.c." + std::to_string(i));
    if (it != in.tensors.end()) c_clients_[i] = it->second;
  }
}

}  // namespace hetero
