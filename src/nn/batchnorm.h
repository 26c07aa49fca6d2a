// Batch normalization over (N, C, H, W) activations (per-channel) with
// running statistics tracked as buffers, optionally followed by the
// activation of a conv-bn-act unit.
//
// In federated learning the running statistics travel with the model state
// and are averaged by the server alongside the weights, which is the
// standard FedAvg treatment of BN.
#pragma once

#include <vector>

#include "kernels/kernels.h"
#include "nn/layer.h"

namespace hetero {

using kernels::Nonlinearity;

class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(std::size_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);
  /// A batch norm whose output passes through `act`: the same bits as
  /// BatchNorm2d(channels) followed by a ReLU or HSwish layer, computed in
  /// the batch norm's own passes, with no activation tensor cached.
  BatchNorm2d(std::size_t channels, Nonlinearity act, float momentum = 0.1f,
              float eps = 1e-5f);

  /// train=true normalizes with batch statistics and updates the running
  /// mean/var; train=false normalizes with the running statistics.
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect(ParamGroup& group) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "BatchNorm2d"; }

  std::size_t channels() const { return c_; }
  Nonlinearity activation() const { return act_; }
  const Tensor& running_mean() const { return run_mean_; }
  const Tensor& running_var() const { return run_var_; }

 private:
  std::size_t c_;
  Nonlinearity act_;
  float momentum_, eps_;
  Tensor gamma_, beta_, ggamma_, gbeta_;
  Tensor run_mean_, run_var_;
  // Training-forward caches.
  Tensor cached_xhat_;         // normalized activations
  std::vector<float> inv_std_; // per-channel 1/sqrt(var+eps)
};

}  // namespace hetero
