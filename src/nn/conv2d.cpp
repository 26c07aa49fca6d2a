#include "nn/conv2d.h"

#include <cmath>

#include "util/rng.h"

namespace hetero {

Conv2d::Conv2d(std::size_t in_c, std::size_t out_c, std::size_t kernel,
               std::size_t stride, std::size_t pad, std::size_t groups,
               Rng& rng, bool bias)
    : Conv2d(Uninitialized{}, in_c, out_c, kernel, stride, pad, groups, bias) {
  const std::size_t fan_in = (in_c / groups) * kernel * kernel;
  w_ = Tensor::randn({out_c, in_c / groups, kernel, kernel}, rng,
                     std::sqrt(2.0f / static_cast<float>(fan_in)));
}

Conv2d::Conv2d(Uninitialized, std::size_t in_c, std::size_t out_c,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               std::size_t groups, bool bias)
    : in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      groups_(groups),
      has_bias_(bias),
      w_({out_c, in_c / groups, kernel, kernel}),
      b_({out_c}),
      gw_({out_c, in_c / groups, kernel, kernel}),
      gb_({out_c}) {
  HS_CHECK(groups > 0 && in_c % groups == 0 && out_c % groups == 0,
           "Conv2d: channels must be divisible by groups");
  HS_CHECK(kernel > 0 && stride > 0, "Conv2d: kernel/stride must be positive");
}

std::unique_ptr<Conv2d> Conv2d::make(std::size_t in_c, std::size_t out_c,
                                     std::size_t kernel, std::size_t stride,
                                     std::size_t pad, Rng& rng) {
  return std::make_unique<Conv2d>(in_c, out_c, kernel, stride, pad, 1, rng,
                                  false);
}

kernels::ConvShape Conv2d::shape(std::size_t n, std::size_t in_h,
                                 std::size_t in_w) const {
  kernels::ConvShape s;
  s.n = n;
  s.in_c = in_c_;
  s.in_h = in_h;
  s.in_w = in_w;
  s.out_c = out_c_;
  s.kernel = kernel_;
  s.stride = stride_;
  s.pad = pad_;
  s.groups = groups_;
  return s;
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  HS_CHECK(x.rank() == 4 && x.dim(1) == in_c_,
           "Conv2d: input must be (N, in_c, H, W)");
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  HS_CHECK(h + 2 * pad_ >= kernel_ && w + 2 * pad_ >= kernel_,
           "Conv2d: kernel larger than padded input");
  const kernels::ConvShape s = shape(n, h, w);

  // Every forward path (reference/tiled/fast, pointwise/depthwise/general)
  // writes the full output, so the zero-fill is skipped.
  Tensor y = Tensor::uninit({n, out_c_, s.out_h(), s.out_w()});
  const kernels::KernelKind kind = kernels::active_kernel();
  float* cols = nullptr;
  if (train) {
    cols = ws_.get(0, s.cols_size());
    cached_kind_ = kind;
    has_cached_ = true;
    cached_n_ = n;
    cached_h_ = h;
    cached_w_ = w;
  }
  kernels::conv2d_forward(kind, s, x.data(), w_.data(),
                          has_bias_ ? b_.data() : nullptr, y.data(), cols,
                          ws_);
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  HS_CHECK(has_cached_, "Conv2d::backward: no cached forward");
  const std::size_t n = cached_n_, h = cached_h_, w = cached_w_;
  const kernels::ConvShape s = shape(n, h, w);
  HS_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
               grad_out.dim(1) == out_c_ && grad_out.dim(2) == s.out_h() &&
               grad_out.dim(3) == s.out_w(),
           "Conv2d::backward: grad shape mismatch");

  Tensor grad_in({n, in_c_, h, w});  // zero-initialized; kernel folds into it
  const float* cols = ws_.get(0, s.cols_size());
  kernels::conv2d_backward(cached_kind_, s, grad_out.data(), w_.data(), cols,
                           gw_.data(), has_bias_ ? gb_.data() : nullptr,
                           grad_in.data(), ws_);
  return grad_in;
}

std::unique_ptr<Layer> Conv2d::clone() const {
  auto copy = std::unique_ptr<Conv2d>(new Conv2d(
      Uninitialized{}, in_c_, out_c_, kernel_, stride_, pad_, groups_,
      has_bias_));
  copy->w_ = w_;
  copy->b_ = b_;
  return copy;
}

void Conv2d::collect(ParamGroup& group) {
  group.params.push_back(&w_);
  group.grads.push_back(&gw_);
  if (has_bias_) {
    group.params.push_back(&b_);
    group.grads.push_back(&gb_);
  }
}

}  // namespace hetero
