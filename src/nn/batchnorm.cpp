#include "nn/batchnorm.h"

#include <cmath>
#include <vector>

namespace hetero {

BatchNorm2d::BatchNorm2d(std::size_t channels, float momentum, float eps)
    : BatchNorm2d(channels, Nonlinearity::kNone, momentum, eps) {}

BatchNorm2d::BatchNorm2d(std::size_t channels, Nonlinearity act,
                         float momentum, float eps)
    : c_(channels),
      act_(act),
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

  std::vector<float> mean(c_), inv(c_);
  if (train) {
    std::vector<double> sums(c_), sqs(c_);
    kernels::bn_moments(x.data(), n, c_, hw, sums.data(), sqs.data());
    for (std::size_t c = 0; c < c_; ++c) {
      const double sum = sums[c], sq = sqs[c];
      mean[c] = static_cast<float>(sum / count);
      const float var_c = static_cast<float>(
          std::max(0.0, sq / count - sum / count * sum / count));
      run_mean_[c] = (1 - momentum_) * run_mean_[c] + momentum_ * mean[c];
      run_var_[c] = (1 - momentum_) * run_var_[c] + momentum_ * var_c;
      inv[c] = 1.0f / std::sqrt(var_c + eps_);
    }
    inv_std_ = inv;
    cached_xhat_ = Tensor::uninit({n, c_, h, w});
  } else {
    for (std::size_t c = 0; c < c_; ++c) {
      mean[c] = run_mean_[c];
      inv[c] = 1.0f / std::sqrt(run_var_[c] + eps_);
    }
  }
  // y and x̂ are written in full.
  Tensor y = Tensor::uninit({n, c_, h, w});
  kernels::bn_act_forward(act_, x.data(), n, c_, hw, mean.data(), inv.data(),
                          gamma_.data(), beta_.data(),
                          train ? cached_xhat_.data() : nullptr, y.data());
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  HS_CHECK(!cached_xhat_.empty(), "BatchNorm2d::backward: no cached forward");
  HS_CHECK(grad_out.same_shape(cached_xhat_),
           "BatchNorm2d::backward: grad shape mismatch");
  const std::size_t n = grad_out.dim(0), hw = grad_out.dim(2) * grad_out.dim(3);
  std::vector<double> sum_d(c_), sum_d_xhat(c_);
  Tensor grad_in = Tensor::uninit(grad_out.shape());  // written in full
  kernels::bn_act_backward(act_, grad_out.data(), cached_xhat_.data(), n, c_,
                           hw, inv_std_.data(), gamma_.data(), beta_.data(),
                           grad_in.data(), sum_d.data(), sum_d_xhat.data());
  for (std::size_t c = 0; c < c_; ++c) {
    ggamma_[c] += static_cast<float>(sum_d_xhat[c]);
    gbeta_[c] += static_cast<float>(sum_d[c]);
  }
  return grad_in;
}

std::unique_ptr<Layer> BatchNorm2d::clone() const {
  auto copy = std::make_unique<BatchNorm2d>(c_, act_, momentum_, eps_);
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
