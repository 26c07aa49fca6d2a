#include "nn/model.h"

namespace hetero {

Model::Model(std::string id, std::unique_ptr<Layer> net)
    : id_(std::move(id)), net_(std::move(net)) {
  HS_CHECK(net_ != nullptr, "Model: null network");
  net_->collect(group_);
  num_params_ = total_size(group_.params);
  num_buffers_ = total_size(group_.buffers);
}

std::unique_ptr<Model> Model::clone() const {
  return std::make_unique<Model>(id_, net_->clone());
}

Tensor Model::forward(const Tensor& x, bool train) {
  return net_->forward(x, train);
}

Tensor Model::backward(const Tensor& grad) { return net_->backward(grad); }

void Model::zero_grad() {
  for (Tensor* g : group_.grads) g->zero();
}

Tensor Model::params() const { return flatten_tensors(group_.params); }

Tensor Model::state() const {
  std::vector<Tensor*> all = group_.params;
  all.insert(all.end(), group_.buffers.begin(), group_.buffers.end());
  return flatten_tensors(all);
}

Tensor Model::grads() const { return flatten_tensors(group_.grads); }

void Model::set_params(const Tensor& flat) {
  unflatten_tensors(flat, group_.params);
}

void Model::set_state(const Tensor& flat) {
  std::vector<Tensor*> all = group_.params;
  all.insert(all.end(), group_.buffers.begin(), group_.buffers.end());
  unflatten_tensors(flat, all);
}

}  // namespace hetero
