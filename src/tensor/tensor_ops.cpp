#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

namespace hetero {

Tensor softmax_rows(const Tensor& logits) {
  HS_CHECK(logits.rank() == 2, "softmax_rows: rank-2 input required");
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  HS_CHECK(c > 0, "softmax_rows: zero classes");
  Tensor out = Tensor::uninit({n, c});  // every row exponentiated below
  for (std::size_t i = 0; i < n; ++i) {
    const float* in = logits.data() + i * c;
    float* o = out.data() + i * c;
    const float mx = *std::max_element(in, in + c);
    double sum = 0.0;
    for (std::size_t j = 0; j < c; ++j) {
      o[j] = std::exp(in[j] - mx);
      sum += o[j];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::size_t j = 0; j < c; ++j) o[j] *= inv;
  }
  return out;
}

Tensor sigmoid(const Tensor& x) {
  Tensor out = x;
  for (float& v : out.flat()) v = 1.0f / (1.0f + std::exp(-v));
  return out;
}

std::vector<std::size_t> argmax_rows(const Tensor& t) {
  HS_CHECK(t.rank() == 2, "argmax_rows: rank-2 input required");
  const std::size_t n = t.dim(0), c = t.dim(1);
  HS_CHECK(c > 0, "argmax_rows: zero columns");
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = t.data() + i * c;
    out[i] = static_cast<std::size_t>(std::max_element(row, row + c) - row);
  }
  return out;
}

}  // namespace hetero
