#include "hetero/heteroswitch.h"

#include "fl/eval.h"
#include "util/rng.h"

namespace hetero {

const char* hetero_switch_mode_name(HeteroSwitchMode mode) {
  switch (mode) {
    case HeteroSwitchMode::kSelective: return "HeteroSwitch";
    case HeteroSwitchMode::kAlwaysIsp: return "ISP-Transformation";
    case HeteroSwitchMode::kAlwaysIspSwad: return "ISP+SWAD";
  }
  return "?";
}

HeteroSwitch::HeteroSwitch(LocalTrainConfig cfg, HeteroSwitchOptions options)
    : cfg_(cfg), options_(options), ema_(options.ema_alpha) {}

void HeteroSwitch::init(Model& model, std::size_t num_clients) {
  (void)model;
  (void)num_clients;
  ema_.reset();
  switch1_count_ = switch2_count_ = update_count_ = 0;
}

std::string HeteroSwitch::name() const {
  return hetero_switch_mode_name(options_.mode);
}

ClientUpdate HeteroSwitch::local_update(Model& model, const Tensor& global,
                                        std::size_t client_id,
                                        const Dataset& full_data,
                                        Rng& client_rng) const {
  model.set_state(global);
  // The switch decisions compare against the EMA as of the round start;
  // aggregate() only updates it after every client has trained.
  const double l_ema = ema_.value();

  // Optional validation split: the last validation_fraction of the
  // client's samples measure bias; the rest train. With kTrainLoss the
  // whole dataset does both (Algorithm 1 verbatim).
  Dataset train_split;
  Dataset val_split;
  const bool use_val = options_.criterion == BiasCriterion::kValidationSplit &&
                       full_data.size() >= 4;
  if (use_val) {
    const std::size_t n_val = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<float>(full_data.size()) *
                                    options_.validation_fraction));
    std::vector<std::size_t> train_idx, val_idx;
    for (std::size_t i = 0; i < full_data.size(); ++i) {
      (i + n_val < full_data.size() ? train_idx : val_idx).push_back(i);
    }
    train_split = full_data.subset(train_idx);
    val_split = full_data.subset(val_idx);
  }
  const Dataset& data = use_val ? train_split : full_data;
  const Dataset& probe = use_val ? val_split : full_data;

  // -- Algorithm 1, lines 2-5: bias measurement ---------------------------
  // L_init: loss of the incoming global model on this client's data.
  bool switch1 = false;
  switch (options_.mode) {
    case HeteroSwitchMode::kSelective: {
      // An unseeded EMA reads +inf and L_init < +inf holds vacuously; by
      // default the switches stay off until the EMA has a real value
      // (HeteroSwitchOptions::switch_on_unseeded_ema restores the legacy
      // fire-for-everyone round 0).
      if (!ema_.initialized() && !options_.switch_on_unseeded_ema) break;
      const double l_init = evaluate_loss(model, probe, kEvalSliceRows);
      switch1 = l_init < l_ema;
      break;
    }
    case HeteroSwitchMode::kAlwaysIsp:
    case HeteroSwitchMode::kAlwaysIspSwad:
      switch1 = true;
      break;
  }
  const bool use_swad =
      switch1 && options_.mode != HeteroSwitchMode::kAlwaysIsp;

  // -- Lines 6-21: local training with optional transform + SWAD ----------
  // Line 10: W_SWA initialized as a copy of W (the incoming weights).
  WeightAverager swa(model.params());
  TrainHooks hooks;
  if (switch1) {
    hooks.transform_batch = [this](Batch& batch, Rng& batch_rng) {
      apply_isp_transform_batch(batch.x, options_.transform, batch_rng);
    };
  }
  if (use_swad) {
    hooks.post_step = [&swa](Model& m, std::size_t) {
      swa.update(m.params());
    };
  }
  const float l_train = local_train(model, data, cfg_, client_rng, hooks);

  // -- Lines 22-29: Switch_2 decides which weights to return --------------
  // With the validation criterion the post-training loss is re-measured
  // on the held-out slice instead of reusing the running train loss.
  const double l_post = use_val
                            ? evaluate_loss(model, probe, kEvalSliceRows)
                            : static_cast<double>(l_train);
  bool switch2 = false;
  switch (options_.mode) {
    case HeteroSwitchMode::kSelective:
      switch2 = switch1 && l_post < l_ema;
      break;
    case HeteroSwitchMode::kAlwaysIspSwad:
      switch2 = true;  // always-on ablation returns the SWAD average
      break;
    case HeteroSwitchMode::kAlwaysIsp:
      switch2 = false;
      break;
  }
  if (switch2) model.set_params(swa.average());

  ClientUpdate u;
  u.client_id = client_id;
  u.state = model.state();
  // Aggregation weight is the client's FULL sample count even under the
  // validation criterion: holding out a probe slice changes what the
  // switches measure, not how much of the population this client speaks
  // for (weighting by the train split would silently down-weight every
  // client by validation_fraction relative to kTrainLoss).
  u.weight = static_cast<double>(full_data.size());
  u.train_loss = static_cast<double>(l_train);
  u.flags = (switch1 ? 1u : 0u) | (switch2 ? 2u : 0u);
  return u;
}

RoundStats HeteroSwitch::aggregate(Model& model, const Tensor& global,
                                   std::vector<ClientUpdate>& updates) {
  (void)global;
  HS_CHECK(!updates.empty(), "HeteroSwitch: no client updates");
  RoundStats stats = summarize_updates(updates, model.state_size());
  std::vector<Tensor> states;
  std::vector<double> weights;
  std::size_t round_switch1 = 0, round_switch2 = 0;
  states.reserve(updates.size());
  for (ClientUpdate& u : updates) {
    ++update_count_;
    if (u.flags & 1u) ++round_switch1;
    if (u.flags & 2u) ++round_switch2;
    states.push_back(std::move(u.state));
    weights.push_back(u.weight);
  }
  switch1_count_ += round_switch1;
  switch2_count_ += round_switch2;
  model.set_state(weighted_average_states(states, weights));
  // Eq. 1: fold the round's aggregated train loss into the EMA.
  ema_.update(stats.mean_train_loss);
  stats.extras["hs.switch1"] = static_cast<double>(round_switch1);
  stats.extras["hs.switch2"] = static_cast<double>(round_switch2);
  stats.extras["hs.ema_loss"] = ema_.value();
  return stats;
}

void HeteroSwitch::save_state(AlgorithmCheckpoint& out) const {
  out.scalars["hs.ema"] = ema_.raw_value();
  out.words["hs.ema_init"] = ema_.initialized() ? 1 : 0;
  out.words["hs.switch1"] = switch1_count_;
  out.words["hs.switch2"] = switch2_count_;
  out.words["hs.updates"] = update_count_;
}

void HeteroSwitch::load_state(const AlgorithmCheckpoint& in) {
  const auto ema = in.scalars.find("hs.ema");
  const auto init = in.words.find("hs.ema_init");
  if (ema != in.scalars.end() && init != in.words.end()) {
    ema_.restore(ema->second, init->second != 0);
  }
  const auto s1 = in.words.find("hs.switch1");
  if (s1 != in.words.end()) switch1_count_ = s1->second;
  const auto s2 = in.words.find("hs.switch2");
  if (s2 != in.words.end()) switch2_count_ = s2->second;
  const auto up = in.words.find("hs.updates");
  if (up != in.words.end()) update_count_ = up->second;
}

}  // namespace hetero
