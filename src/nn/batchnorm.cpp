#include "nn/batchnorm.h"

#include <cmath>
#include <vector>

#include "kernels/kernels.h"

namespace hetero {

BatchNorm2d::BatchNorm2d(std::size_t channels, float momentum, float eps)
    : c_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Tensor::ones({channels})),
      beta_({channels}),
      ggamma_({channels}),
      gbeta_({channels}),
      run_mean_({channels}),
      run_var_(Tensor::ones({channels})) {
  HS_CHECK(channels > 0, "BatchNorm2d: zero channels");
}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  HS_CHECK(x.rank() == 4 && x.dim(1) == c_,
           "BatchNorm2d: input must be (N, C, H, W)");
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t hw = h * w;
  const double count = static_cast<double>(n * hw);
  HS_CHECK(count > 0, "BatchNorm2d: empty batch");

  // y and xhat are written in full by bn_normalize_plane below.
  Tensor y = Tensor::uninit({n, c_, h, w});
  std::vector<double> sums, sqs;
  if (train) {
    cached_xhat_ = Tensor::uninit({n, c_, h, w});
    inv_std_.assign(c_, 0.0f);
    cached_n_ = n;
    cached_h_ = h;
    cached_w_ = w;
    sums.resize(c_);
    sqs.resize(c_);
    kernels::channel_moments(x.data(), n, c_, hw, sums.data(), sqs.data());
  }

  for (std::size_t c = 0; c < c_; ++c) {
    float mean_c, var_c;
    if (train) {
      const double sum = sums[c], sq = sqs[c];
      mean_c = static_cast<float>(sum / count);
      var_c = static_cast<float>(std::max(0.0, sq / count - sum / count * sum / count));
      run_mean_[c] = (1 - momentum_) * run_mean_[c] + momentum_ * mean_c;
      run_var_[c] = (1 - momentum_) * run_var_[c] + momentum_ * var_c;
    } else {
      mean_c = run_mean_[c];
      var_c = run_var_[c];
    }
    const float inv = 1.0f / std::sqrt(var_c + eps_);
    if (train) inv_std_[c] = inv;
    const float g = gamma_[c], b = beta_[c];
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t plane = ((s * c_) + c) * hw;
      kernels::bn_normalize_plane(
          x.data() + plane, y.data() + plane,
          train ? cached_xhat_.data() + plane : nullptr, hw, mean_c, inv, g,
          b);
    }
  }
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  HS_CHECK(!cached_xhat_.empty(), "BatchNorm2d::backward: no cached forward");
  const std::size_t n = cached_n_, h = cached_h_, w = cached_w_;
  HS_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
               grad_out.dim(1) == c_ && grad_out.dim(2) == h &&
               grad_out.dim(3) == w,
           "BatchNorm2d::backward: grad shape mismatch");
  const std::size_t hw = h * w;
  const double m = static_cast<double>(n * hw);

  // Standard batch-norm backward: reduce dL/dgamma, dL/dbeta, then the
  // coupled input gradient, which bn_apply_plane writes in full.
  std::vector<double> sums_dy(c_), sums_dy_xhat(c_);
  kernels::bn_reduce_channels(grad_out.data(), cached_xhat_.data(), n, c_, hw,
                              sums_dy.data(), sums_dy_xhat.data());
  Tensor grad_in = Tensor::uninit({n, c_, h, w});
  for (std::size_t c = 0; c < c_; ++c) {
    const double sum_dy = sums_dy[c], sum_dy_xhat = sums_dy_xhat[c];
    ggamma_[c] += static_cast<float>(sum_dy_xhat);
    gbeta_[c] += static_cast<float>(sum_dy);
    // g * inv is folded once; the per-element product order is unchanged
    // (the seed expression evaluates (g * inv) * rest left-to-right).
    const float g_inv = gamma_[c] * inv_std_[c];
    const float k1 = static_cast<float>(sum_dy / m);
    const float k2 = static_cast<float>(sum_dy_xhat / m);
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t plane = ((s * c_) + c) * hw;
      kernels::bn_apply_plane(grad_out.data() + plane,
                              cached_xhat_.data() + plane,
                              grad_in.data() + plane, hw, g_inv, k1, k2);
    }
  }
  return grad_in;
}

std::unique_ptr<Layer> BatchNorm2d::clone() const {
  auto copy = std::make_unique<BatchNorm2d>(c_, momentum_, eps_);
  copy->gamma_ = gamma_;
  copy->beta_ = beta_;
  copy->run_mean_ = run_mean_;
  copy->run_var_ = run_var_;
  return copy;
}

void BatchNorm2d::collect(ParamGroup& group) {
  group.params.push_back(&gamma_);
  group.params.push_back(&beta_);
  group.grads.push_back(&ggamma_);
  group.grads.push_back(&gbeta_);
  group.buffers.push_back(&run_mean_);
  group.buffers.push_back(&run_var_);
}

}  // namespace hetero
