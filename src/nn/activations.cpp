#include "nn/activations.h"

#include <algorithm>

#include "kernels/kernels.h"

namespace hetero {

Tensor ReLU::forward(const Tensor& x, bool train) {
  // Single pass straight from x into uninitialized output storage — the
  // copy-then-clamp form reads the activation twice for no reason.
  Tensor y = Tensor::uninit(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  const std::size_t size = x.size();
  if (train) {
    // Fused clamp + mask capture: backward only needs sign(x) > 0, so the
    // mask replaces a full tensor copy of the input.
    mask_.resize(size);
    cached_shape_ = x.shape();
    unsigned char* mp = mask_.data();
    for (std::size_t i = 0; i < size; ++i) {
      mp[i] = xp[i] > 0.0f ? 1 : 0;
      yp[i] = std::max(xp[i], 0.0f);  // same bits as the eval path (-0.0)
    }
    return y;
  }
  for (std::size_t i = 0; i < size; ++i) yp[i] = std::max(xp[i], 0.0f);
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  HS_CHECK(!mask_.empty(), "ReLU::backward: no cached forward");
  HS_CHECK(grad_out.shape() == cached_shape_,
           "ReLU::backward: shape mismatch");
  Tensor g = grad_out;
  // Branchless select: the sign of the cached input is data-dependent and
  // mispredicts heavily as a branch; the ternary compiles to a vectorized
  // compare+mask with identical results.
  float* gp = g.data();
  const unsigned char* mp = mask_.data();
  const std::size_t size = g.size();
  for (std::size_t i = 0; i < size; ++i) {
    gp[i] = mp[i] ? gp[i] : 0.0f;
  }
  return g;
}

float HSigmoid::f(float x) { return kernels::hsigmoid(x); }

float HSigmoid::df(float x) { return kernels::hsigmoid_grad(x); }

Tensor HSigmoid::forward(const Tensor& x, bool train) {
  if (train) cached_x_ = x;
  Tensor y = Tensor::uninit(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) yp[i] = f(xp[i]);
  return y;
}

Tensor HSigmoid::backward(const Tensor& grad_out) {
  HS_CHECK(!cached_x_.empty(), "HSigmoid::backward: no cached forward");
  HS_CHECK(grad_out.same_shape(cached_x_),
           "HSigmoid::backward: shape mismatch");
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= df(cached_x_[i]);
  return g;
}

Tensor HSwish::forward(const Tensor& x, bool train) {
  if (train) cached_x_ = x;
  Tensor y = Tensor::uninit(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  const std::size_t size = x.size();
  // Gate pass, then product pass: fused, the clamp's select chain followed
  // by the product is control flow GCC cannot if-convert under
  // -ftrapping-math, and the loop does not vectorize. Split, both passes
  // do, and every product is still x * f(x).
  for (std::size_t i = 0; i < size; ++i) yp[i] = HSigmoid::f(xp[i]);
  for (std::size_t i = 0; i < size; ++i) yp[i] = xp[i] * yp[i];
  return y;
}

Tensor HSwish::backward(const Tensor& grad_out) {
  HS_CHECK(!cached_x_.empty(), "HSwish::backward: no cached forward");
  HS_CHECK(grad_out.same_shape(cached_x_), "HSwish::backward: shape mismatch");
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const float x = cached_x_[i];
    // d/dx [x * hsig(x)] = hsig(x) + x * hsig'(x).
    g[i] *= HSigmoid::f(x) + x * HSigmoid::df(x);
  }
  return g;
}

}  // namespace hetero
