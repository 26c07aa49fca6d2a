#include "nn/sequential.h"

namespace hetero {

Sequential::Sequential(const Sequential& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

std::unique_ptr<Layer> Sequential::clone() const {
  return std::make_unique<Sequential>(*this);
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  HS_CHECK(layer != nullptr, "Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

// Layers take their input by const reference, so the outermost layer reads
// x (or grad_out) as is.
Tensor Sequential::forward(const Tensor& x, bool train) {
  if (layers_.empty()) return x;
  Tensor h = layers_.front()->forward(x, train);
  for (auto it = layers_.begin() + 1; it != layers_.end(); ++it) {
    h = (*it)->forward(h, train);
  }
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  if (layers_.empty()) return grad_out;
  Tensor g = layers_.back()->backward(grad_out);
  for (auto it = layers_.rbegin() + 1; it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::collect(ParamGroup& group) {
  for (auto& l : layers_) l->collect(group);
}

}  // namespace hetero
