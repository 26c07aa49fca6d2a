// Row-wise free functions on Tensor: softmax, sigmoid and argmax. The
// compute hot spots (GEMMs, im2col/col2im) live in src/kernels over raw
// float buffers.
#pragma once

#include <cstddef>

#include "tensor/tensor.h"

namespace hetero {

/// Row-wise softmax of a (N, C) tensor (numerically stabilized).
Tensor softmax_rows(const Tensor& logits);

/// Elementwise sigmoid.
Tensor sigmoid(const Tensor& x);

/// Argmax per row of a (N, C) tensor.
std::vector<std::size_t> argmax_rows(const Tensor& t);

}  // namespace hetero
