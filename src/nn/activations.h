// Elementwise activations used by the mobile model zoo: ReLU, and the
// hard-swish / hard-sigmoid pair from MobileNetV3.
#pragma once

#include <vector>

#include "nn/layer.h"

namespace hetero {

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>();
  }
  std::string name() const override { return "ReLU"; }

 private:
  /// Backward only needs the sign of the forward input, so the forward
  /// caches a byte mask (x > 0) instead of copying the whole activation —
  /// a quarter of the memory traffic, identical gradients.
  std::vector<unsigned char> mask_;
  std::vector<std::size_t> cached_shape_;
};

/// h-sigmoid(x) = clamp(x/6 + 0.5, 0, 1)  (the ReLU6(x+3)/6 formulation).
class HSigmoid : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<HSigmoid>();
  }
  std::string name() const override { return "HSigmoid"; }

  /// Scalar version (kernels::hsigmoid), shared with HSwish.
  static float f(float x);
  static float df(float x);

 private:
  Tensor cached_x_;
};

/// h-swish(x) = x * h-sigmoid(x).
class HSwish : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<HSwish>();
  }
  std::string name() const override { return "HSwish"; }

 private:
  Tensor cached_x_;
};

}  // namespace hetero
