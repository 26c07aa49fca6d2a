// Fully-connected layer: y = x W^T + b, x of shape (N, in), W (out, in).
#pragma once

#include "kernels/kernels.h"
#include "nn/layer.h"

namespace hetero {

class Rng;

class Linear : public Layer {
 public:
  /// He-initialized weights (suitable for the ReLU-family activations used
  /// throughout the model zoo); zero bias.
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
         bool bias = true);

  /// Deep copy (weights, bias, grads); used by clone() and by composite
  /// blocks that hold Linear members by value.
  Linear(const Linear& other);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect(ParamGroup& group) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "Linear"; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

 private:
  std::size_t in_, out_;
  bool has_bias_;
  Tensor w_, b_;        // (out, in), (out)
  Tensor gw_, gb_;      // gradients
  Tensor cached_x_;     // (N, in) from the last training forward
  kernels::Workspace ws_;  // scratch for the weight-gradient GEMM
};

}  // namespace hetero
