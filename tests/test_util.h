// Shared test helpers: numerical gradient checking for layers, small
// tensor-comparison utilities, and a single-round helper over a bare
// dataset vector.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "fl/algorithm.h"
#include "fl/client_provider.h"
#include "nn/layer.h"
#include "runtime/client_executor.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace hetero::testing {

/// Serves a bare dataset vector through the provider interface: every
/// client is device 0 and there are no test sets.
class VectorDatasetProvider final : public ClientProvider {
 public:
  explicit VectorDatasetProvider(const std::vector<Dataset>& data)
      : data_(data) {}

  std::size_t num_clients() const override { return data_.size(); }
  std::size_t device_of(std::size_t) const override { return 0; }
  double work_of(std::size_t client) const override {
    return static_cast<double>(data_.at(client).size());
  }
  const Dataset& client_dataset(std::size_t client,
                                ClientSlot&) const override {
    return data_.at(client);
  }
  const std::vector<Dataset>& device_test() const override { return none_; }
  const std::vector<std::string>& device_names() const override {
    return names_;
  }
  const std::vector<double>& device_speed_scale() const override {
    return scale_;
  }

 private:
  const std::vector<Dataset>& data_;
  std::vector<Dataset> none_;
  std::vector<std::string> names_;
  std::vector<double> scale_;
};

/// One communication round on a one-thread ClientExecutor: local_update
/// for every selected client (streams forked from `rng` by client id), the
/// quarantine of non-finite updates, then the aggregate.
inline RoundStats run_one_round(Model& model,
                                SplitFederatedAlgorithm& algorithm,
                                const std::vector<std::size_t>& selected,
                                const std::vector<Dataset>& client_data,
                                Rng& rng) {
  ClientExecutor executor(1);
  const VectorDatasetProvider provider(client_data);
  return executor.run_round(model, algorithm, selected, provider, rng);
}

/// Element-wise tensor comparison with absolute tolerance.
inline void expect_tensor_near(const Tensor& a, const Tensor& b,
                               float atol = 1e-5f) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], atol) << "at flat index " << i;
  }
}

/// Scalar loss used by gradient checks: sum(weights ⊙ layer(x)), with fixed
/// random weights so every output element participates.
inline float weighted_output_sum(Layer& layer, const Tensor& x,
                                 const Tensor& weights) {
  Tensor y = layer.forward(x, /*train=*/true);
  float s = 0.0f;
  for (std::size_t i = 0; i < y.size(); ++i) s += y[i] * weights[i];
  return s;
}

struct GradCheckResult {
  double max_input_error = 0.0;
  double max_param_error = 0.0;
};

/// Central-difference gradient check of a layer at input x.
///
/// Checks both dLoss/dx (backward return value) and dLoss/dparams
/// (accumulated gradients). The networks under test contain kinked
/// activations (ReLU at 0, h-swish at +-3) and BatchNorm centres
/// pre-activations exactly on ReLU's kink, so a plain central difference
/// occasionally straddles a kink and reports a bogus error. The check
/// therefore evaluates each coordinate at two step sizes and discounts
/// coordinates where the two numeric estimates disagree with each other
/// (the signature of a kink crossing, not of a wrong backward pass).
inline GradCheckResult gradient_check(Layer& layer, Tensor x, Rng& rng,
                                      float eps = 1e-2f) {
  // Fixed random output weighting (captures all output components).
  Tensor probe = layer.forward(x, true);
  Tensor weights = Tensor::rand_uniform(probe.shape(), rng, -1.0f, 1.0f);

  // Analytic gradients.
  layer.zero_grad();
  layer.forward(x, true);
  Tensor analytic_dx = layer.backward(weights);
  ParamGroup group = layer.param_group();
  std::vector<Tensor> analytic_dp;
  for (Tensor* g : group.grads) analytic_dp.push_back(*g);

  auto coord_error = [&](float& slot, double analytic) {
    const float orig = slot;
    auto central = [&](float e) {
      slot = orig + e;
      const float fp = weighted_output_sum(layer, x, weights);
      slot = orig - e;
      const float fm = weighted_output_sum(layer, x, weights);
      slot = orig;
      return (static_cast<double>(fp) - fm) / (2.0 * e);
    };
    // Shrink the step until the estimate matches the analytic gradient (a
    // kink fell out of the stencil) or stabilizes away from it (real bug).
    double prev = central(eps);
    double best_err = std::abs(prev - analytic);
    float e = eps;
    for (int level = 0; level < 3 && best_err >= 2e-2; ++level) {
      e *= 0.2f;
      const double cur = central(e);
      const double err = std::abs(cur - analytic);
      best_err = std::min(best_err, err);
      if (err >= 2e-2 && std::abs(cur - prev) < 0.05 * err) {
        return err;  // estimates stabilized but disagree with analytic: bug
      }
      prev = cur;
    }
    return best_err;
  };

  GradCheckResult result;
  for (std::size_t i = 0; i < x.size(); ++i) {
    result.max_input_error =
        std::max(result.max_input_error, coord_error(x[i], analytic_dx[i]));
  }
  for (std::size_t t = 0; t < group.params.size(); ++t) {
    Tensor& p = *group.params[t];
    for (std::size_t i = 0; i < p.size(); ++i) {
      result.max_param_error = std::max(
          result.max_param_error, coord_error(p[i], analytic_dp[t][i]));
    }
  }
  return result;
}

}  // namespace hetero::testing
