#include "nn/optimizer.h"

namespace hetero {

Sgd::Sgd(Layer& model, SgdOptions options) : options_(options) {
  model.collect(group_);
  HS_CHECK(group_.params.size() == group_.grads.size(),
           "Sgd: params/grads mismatch");
}

void Sgd::step() {
  if (options_.momentum > 0.0f && velocity_.empty()) {
    velocity_.reserve(group_.params.size());
    for (const Tensor* p : group_.params) velocity_.emplace_back(p->shape());
  }
  for (std::size_t i = 0; i < group_.params.size(); ++i) {
    Tensor& p = *group_.params[i];
    const Tensor& g = *group_.grads[i];
    // Raw pointers hoisted out of the loops so the three streams vectorize
    // (indexing through the tensors defeats the alias analysis).
    float* pp = p.data();
    const float* gp = g.data();
    const std::size_t size = p.size();
    if (options_.momentum > 0.0f) {
      float* vp = velocity_[i].data();
      for (std::size_t j = 0; j < size; ++j) {
        const float grad = gp[j] + options_.weight_decay * pp[j];
        vp[j] = options_.momentum * vp[j] + grad;
        pp[j] -= options_.lr * vp[j];
      }
    } else {
      for (std::size_t j = 0; j < size; ++j) {
        const float grad = gp[j] + options_.weight_decay * pp[j];
        pp[j] -= options_.lr * grad;
      }
    }
  }
}

void Sgd::step_and_zero() {
  step();
  for (Tensor* g : group_.grads) g->zero();
}

}  // namespace hetero
