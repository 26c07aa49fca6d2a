// Composite building blocks for the mobile model zoo:
//   * SEBlock          - squeeze-and-excitation channel attention
//   * Residual         - y = x + f(x) skip wrapper
//   * InvertedResidual - MobileNetV3 bottleneck (expand / depthwise / SE /
//                        project, optional skip)
//   * FireModule       - SqueezeNet squeeze + parallel 1x1/3x3 expand
//   * ShuffleUnit      - ShuffleNetV2 unit (channel split + shuffle)
//
// Composites own their sub-layers and implement forward/backward through the
// branch topology explicitly.
#pragma once

#include <memory>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layer.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace hetero {

class Rng;

/// Squeeze-and-excitation: per-channel gate from globally-pooled features.
/// y[n,c,h,w] = x[n,c,h,w] * hsigmoid(fc2(relu(fc1(gap(x)))))[n,c].
class SEBlock : public Layer {
 public:
  SEBlock(std::size_t channels, std::size_t reduction, Rng& rng);
  SEBlock(const SEBlock& other);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect(ParamGroup& group) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "SEBlock"; }

 private:
  std::size_t c_;
  GlobalAvgPool gap_;
  Linear fc1_, fc2_;
  ReLU relu_;
  HSigmoid hsig_;
  Tensor cached_x_, cached_gate_;  // gate: (N, C)
};

/// Residual skip around an inner layer with matching input/output shapes.
class Residual : public Layer {
 public:
  explicit Residual(std::unique_ptr<Layer> inner);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect(ParamGroup& group) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "Residual"; }

 private:
  std::unique_ptr<Layer> inner_;
};

/// MobileNetV3 bottleneck block.
class InvertedResidual : public Layer {
 public:
  /// expand -> depthwise(kernel, stride) -> [SE] -> project. Residual skip
  /// is applied when stride==1 and in_c==out_c.
  InvertedResidual(std::size_t in_c, std::size_t expand_c, std::size_t out_c,
                   std::size_t kernel, std::size_t stride, bool use_se,
                   Nonlinearity nl, Rng& rng);
  InvertedResidual(const InvertedResidual& other);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect(ParamGroup& group) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "InvertedResidual"; }

 private:
  bool use_res_;
  Sequential body_;
};

/// SqueezeNet fire module: squeeze 1x1 (s_c) then parallel expand 1x1 (e1_c)
/// and expand 3x3 (e3_c), concatenated along channels. ReLU after each conv.
class FireModule : public Layer {
 public:
  FireModule(std::size_t in_c, std::size_t squeeze_c, std::size_t expand1_c,
             std::size_t expand3_c, Rng& rng);
  FireModule(const FireModule& other);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect(ParamGroup& group) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "FireModule"; }

 private:
  std::size_t e1_c_, e3_c_;
  Sequential squeeze_;
  Sequential expand1_, expand3_;
  Tensor cached_sq_;  // squeeze output (input to both branches)
};

/// ShuffleNetV2 basic unit. stride==1: channel split, right branch conv,
/// concat, shuffle. stride==2: both branches downsample, concat (channels
/// double), shuffle.
class ShuffleUnit : public Layer {
 public:
  /// For stride 1, out_c must equal in_c; for stride 2, out_c must be even
  /// and >= in_c (branch widths out_c/2 each).
  ShuffleUnit(std::size_t in_c, std::size_t out_c, std::size_t stride,
              Rng& rng);
  ShuffleUnit(const ShuffleUnit& other);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect(ParamGroup& group) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "ShuffleUnit"; }

 private:
  std::size_t in_c_, out_c_, stride_;
  Sequential left_;   // only used when stride==2
  Sequential right_;
  std::vector<std::size_t> cached_in_shape_;
};

/// Channel shuffle with the given number of groups: reorders (N, C, H, W)
/// channels as c -> (c % groups) * (C/groups) + c / groups.
class ChannelShuffle : public Layer {
 public:
  explicit ChannelShuffle(std::size_t groups);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ChannelShuffle>(groups_);
  }
  std::string name() const override { return "ChannelShuffle"; }

 private:
  std::size_t groups_;
};

/// Splits (N,C,H,W) channels [c0, c1) into a new tensor (copy).
Tensor channel_range(const Tensor& x, std::size_t c0, std::size_t c1);
/// Concatenates two (N,*,H,W) tensors along channels.
Tensor channel_concat(const Tensor& a, const Tensor& b);

/// Conv then BatchNorm2d(out_c, nl): the conv-bn-activation unit, with the
/// activation (kReLU or kHSwish; kNone for none) run inside the batch norm.
std::unique_ptr<Sequential> conv_bn_act(std::size_t in_c, std::size_t out_c,
                                        std::size_t kernel, std::size_t stride,
                                        std::size_t pad, std::size_t groups,
                                        Nonlinearity nl, Rng& rng);
/// Conv+BN without activation (projection layers).
std::unique_ptr<Sequential> conv_bn(std::size_t in_c, std::size_t out_c,
                                    std::size_t kernel, std::size_t stride,
                                    std::size_t pad, std::size_t groups,
                                    Rng& rng);

}  // namespace hetero
