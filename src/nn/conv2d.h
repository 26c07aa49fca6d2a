// 2-D convolution (cross-correlation) with square kernels, stride, zero
// padding and channel groups. groups == in_channels gives the depthwise
// convolution used by the MobileNet/ShuffleNet blocks.
//
// Implementation: kernels::conv2d_forward/backward — batched im2col + one
// GEMM per group over the whole mini-batch (HS_KERNEL=tiled) or the
// per-sample reference loops (HS_KERNEL=reference). The unfolded patch
// matrices live in a per-layer workspace that is reused across steps, so
// steady-state training does not allocate.
#pragma once

#include "kernels/kernels.h"
#include "nn/layer.h"
#include "tensor/tensor_ops.h"

namespace hetero {

class Rng;

class Conv2d : public Layer {
 public:
  /// Weight shape (out_c, in_c/groups, k, k); He-initialized. in_c and out_c
  /// must be divisible by groups.
  Conv2d(std::size_t in_c, std::size_t out_c, std::size_t kernel,
         std::size_t stride, std::size_t pad, std::size_t groups, Rng& rng,
         bool bias = false);

  /// Common case: groups=1, bias off (a BatchNorm usually follows).
  static std::unique_ptr<Conv2d> make(std::size_t in_c, std::size_t out_c,
                                      std::size_t kernel, std::size_t stride,
                                      std::size_t pad, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect(ParamGroup& group) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "Conv2d"; }

  std::size_t in_channels() const { return in_c_; }
  std::size_t out_channels() const { return out_c_; }
  Tensor& weight() { return w_; }

 private:
  struct Uninitialized {};  // clone() tag: geometry only, weights copied after

  Conv2d(Uninitialized, std::size_t in_c, std::size_t out_c,
         std::size_t kernel, std::size_t stride, std::size_t pad,
         std::size_t groups, bool bias);

  kernels::ConvShape shape(std::size_t n, std::size_t in_h,
                           std::size_t in_w) const;

  std::size_t in_c_, out_c_, kernel_, stride_, pad_, groups_;
  bool has_bias_;
  Tensor w_, b_, gw_, gb_;
  // Caches from the last training forward. The patch matrices sit in the
  // workspace (slot 0); their layout depends on the kernel kind, so the
  // kind is pinned at forward time and reused by backward.
  kernels::Workspace ws_;
  kernels::KernelKind cached_kind_ = kernels::KernelKind::kReference;
  bool has_cached_ = false;
  std::size_t cached_n_ = 0, cached_h_ = 0, cached_w_ = 0;
};

}  // namespace hetero
