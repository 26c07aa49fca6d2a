#include "nn/blocks.h"

#include "kernels/kernels.h"
#include "util/rng.h"

namespace hetero {

// ---------------------------------------------------------------- SEBlock --

SEBlock::SEBlock(std::size_t channels, std::size_t reduction, Rng& rng)
    : c_(channels),
      fc1_(channels, std::max<std::size_t>(1, channels / reduction), rng),
      fc2_(std::max<std::size_t>(1, channels / reduction), channels, rng) {}

Tensor SEBlock::forward(const Tensor& x, bool train) {
  HS_CHECK(x.rank() == 4 && x.dim(1) == c_, "SEBlock: input mismatch");
  Tensor s = gap_.forward(x, train);                       // (N, C)
  Tensor h = relu_.forward(fc1_.forward(s, train), train); // (N, C/r)
  Tensor gate = hsig_.forward(fc2_.forward(h, train), train);  // (N, C)
  // y = x * gate, written straight from x (every element).
  Tensor y = Tensor::uninit(x.shape());
  kernels::se_scale(x.data(), gate.data(), x.dim(0) * c_,
                    x.dim(2) * x.dim(3), y.data());
  if (train) {
    cached_x_ = x;
    cached_gate_ = std::move(gate);
  }
  return y;
}

Tensor SEBlock::backward(const Tensor& grad_out) {
  HS_CHECK(!cached_x_.empty(), "SEBlock::backward: no cached forward");
  HS_CHECK(grad_out.same_shape(cached_x_),
           "SEBlock::backward: grad shape mismatch");
  const std::size_t n = cached_x_.dim(0);
  const std::size_t hw = cached_x_.dim(2) * cached_x_.dim(3);
  // y = x * gate  =>  dgate[n,c] = sum_hw dy * x, and dx = dy * gate plus
  // the pooled path's gradient, broadcast as GlobalAvgPool::backward would.
  Tensor grad_gate = Tensor::uninit({n, c_});
  kernels::se_gate_grad(grad_out.data(), cached_x_.data(), n * c_, hw,
                        grad_gate.data());
  // Back through the excitation MLP into the pooled features, then into x.
  Tensor g = hsig_.backward(grad_gate);
  g = fc2_.backward(g);
  g = relu_.backward(g);
  g = fc1_.backward(g);
  Tensor grad_x = Tensor::uninit(grad_out.shape());
  kernels::se_input_grad(grad_out.data(), cached_gate_.data(), g.data(),
                         n * c_, hw, grad_x.data());
  return grad_x;
}

void SEBlock::collect(ParamGroup& group) {
  fc1_.collect(group);
  fc2_.collect(group);
}

SEBlock::SEBlock(const SEBlock& other)
    : c_(other.c_), fc1_(other.fc1_), fc2_(other.fc2_) {}

std::unique_ptr<Layer> SEBlock::clone() const {
  return std::make_unique<SEBlock>(*this);
}

// --------------------------------------------------------------- Residual --

Residual::Residual(std::unique_ptr<Layer> inner) : inner_(std::move(inner)) {
  HS_CHECK(inner_ != nullptr, "Residual: null inner layer");
}

Tensor Residual::forward(const Tensor& x, bool train) {
  Tensor y = inner_->forward(x, train);
  HS_CHECK(y.same_shape(x), "Residual: inner layer changed shape");
  y += x;
  return y;
}

Tensor Residual::backward(const Tensor& grad_out) {
  Tensor g = inner_->backward(grad_out);
  g += grad_out;
  return g;
}

void Residual::collect(ParamGroup& group) { inner_->collect(group); }

std::unique_ptr<Layer> Residual::clone() const {
  return std::make_unique<Residual>(inner_->clone());
}

// ---------------------------------------------------------------- helpers --

std::unique_ptr<Sequential> conv_bn_act(std::size_t in_c, std::size_t out_c,
                                        std::size_t kernel, std::size_t stride,
                                        std::size_t pad, std::size_t groups,
                                        Nonlinearity nl, Rng& rng) {
  auto seq = std::make_unique<Sequential>();
  seq->add(std::make_unique<Conv2d>(in_c, out_c, kernel, stride, pad, groups,
                                    rng, false));
  seq->add(std::make_unique<BatchNorm2d>(out_c, nl));
  return seq;
}

std::unique_ptr<Sequential> conv_bn(std::size_t in_c, std::size_t out_c,
                                    std::size_t kernel, std::size_t stride,
                                    std::size_t pad, std::size_t groups,
                                    Rng& rng) {
  return conv_bn_act(in_c, out_c, kernel, stride, pad, groups,
                     Nonlinearity::kNone, rng);
}

// ------------------------------------------------------- InvertedResidual --

InvertedResidual::InvertedResidual(std::size_t in_c, std::size_t expand_c,
                                   std::size_t out_c, std::size_t kernel,
                                   std::size_t stride, bool use_se,
                                   Nonlinearity nl, Rng& rng)
    : use_res_(stride == 1 && in_c == out_c) {
  HS_CHECK(kernel % 2 == 1, "InvertedResidual: kernel must be odd");
  if (expand_c != in_c) {
    body_.add(conv_bn_act(in_c, expand_c, 1, 1, 0, 1, nl, rng));
  }
  // Depthwise spatial convolution.
  body_.add(conv_bn_act(expand_c, expand_c, kernel, stride, kernel / 2,
                        expand_c, nl, rng));
  if (use_se) body_.add(std::make_unique<SEBlock>(expand_c, 4, rng));
  // Linear projection (no activation).
  body_.add(conv_bn(expand_c, out_c, 1, 1, 0, 1, rng));
}

Tensor InvertedResidual::forward(const Tensor& x, bool train) {
  Tensor y = body_.forward(x, train);
  if (use_res_) y += x;
  return y;
}

Tensor InvertedResidual::backward(const Tensor& grad_out) {
  Tensor g = body_.backward(grad_out);
  if (use_res_) g += grad_out;
  return g;
}

void InvertedResidual::collect(ParamGroup& group) { body_.collect(group); }

InvertedResidual::InvertedResidual(const InvertedResidual& other)
    : use_res_(other.use_res_), body_(other.body_) {}

std::unique_ptr<Layer> InvertedResidual::clone() const {
  return std::make_unique<InvertedResidual>(*this);
}

// ------------------------------------------------------------- FireModule --

FireModule::FireModule(std::size_t in_c, std::size_t squeeze_c,
                       std::size_t expand1_c, std::size_t expand3_c, Rng& rng)
    : e1_c_(expand1_c), e3_c_(expand3_c) {
  squeeze_.add(std::make_unique<Conv2d>(in_c, squeeze_c, 1, 1, 0, 1, rng, true))
      .add(std::make_unique<ReLU>());
  expand1_
      .add(std::make_unique<Conv2d>(squeeze_c, expand1_c, 1, 1, 0, 1, rng,
                                    true))
      .add(std::make_unique<ReLU>());
  expand3_
      .add(std::make_unique<Conv2d>(squeeze_c, expand3_c, 3, 1, 1, 1, rng,
                                    true))
      .add(std::make_unique<ReLU>());
}

Tensor FireModule::forward(const Tensor& x, bool train) {
  Tensor sq = squeeze_.forward(x, train);
  if (train) cached_sq_ = sq;
  Tensor a = expand1_.forward(sq, train);
  Tensor b = expand3_.forward(sq, train);
  return channel_concat(a, b);
}

Tensor FireModule::backward(const Tensor& grad_out) {
  HS_CHECK(grad_out.rank() == 4 && grad_out.dim(1) == e1_c_ + e3_c_,
           "FireModule::backward: grad shape mismatch");
  Tensor ga = channel_range(grad_out, 0, e1_c_);
  Tensor gb = channel_range(grad_out, e1_c_, e1_c_ + e3_c_);
  Tensor gsq = expand1_.backward(ga);
  gsq += expand3_.backward(gb);
  return squeeze_.backward(gsq);
}

void FireModule::collect(ParamGroup& group) {
  squeeze_.collect(group);
  expand1_.collect(group);
  expand3_.collect(group);
}

FireModule::FireModule(const FireModule& other)
    : e1_c_(other.e1_c_),
      e3_c_(other.e3_c_),
      squeeze_(other.squeeze_),
      expand1_(other.expand1_),
      expand3_(other.expand3_) {}

std::unique_ptr<Layer> FireModule::clone() const {
  return std::make_unique<FireModule>(*this);
}

// ---------------------------------------------------------- channel utils --

Tensor channel_range(const Tensor& x, std::size_t c0, std::size_t c1) {
  HS_CHECK(x.rank() == 4 && c0 < c1 && c1 <= x.dim(1),
           "channel_range: bad channel bounds");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t hw = h * w, nc = c1 - c0;
  Tensor out({n, nc, h, w});
  for (std::size_t s = 0; s < n; ++s) {
    const float* src = x.data() + ((s * c) + c0) * hw;
    float* dst = out.data() + s * nc * hw;
    std::copy(src, src + nc * hw, dst);
  }
  return out;
}

Tensor channel_concat(const Tensor& a, const Tensor& b) {
  HS_CHECK(a.rank() == 4 && b.rank() == 4 && a.dim(0) == b.dim(0) &&
               a.dim(2) == b.dim(2) && a.dim(3) == b.dim(3),
           "channel_concat: incompatible shapes");
  const std::size_t n = a.dim(0), ca = a.dim(1), cb = b.dim(1), h = a.dim(2),
                    w = a.dim(3);
  const std::size_t hw = h * w;
  Tensor out({n, ca + cb, h, w});
  for (std::size_t s = 0; s < n; ++s) {
    std::copy(a.data() + s * ca * hw, a.data() + (s + 1) * ca * hw,
              out.data() + s * (ca + cb) * hw);
    std::copy(b.data() + s * cb * hw, b.data() + (s + 1) * cb * hw,
              out.data() + (s * (ca + cb) + ca) * hw);
  }
  return out;
}

// --------------------------------------------------------- ChannelShuffle --

ChannelShuffle::ChannelShuffle(std::size_t groups) : groups_(groups) {
  HS_CHECK(groups > 0, "ChannelShuffle: groups must be positive");
}

Tensor ChannelShuffle::forward(const Tensor& x, bool train) {
  (void)train;
  HS_CHECK(x.rank() == 4 && x.dim(1) % groups_ == 0,
           "ChannelShuffle: channels not divisible by groups");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t per = c / groups_;
  const std::size_t hw = h * w;
  Tensor y({n, c, h, w});
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const std::size_t dst_ch = (ch % groups_) * per + ch / groups_;
      std::copy(x.data() + ((s * c) + ch) * hw,
                x.data() + ((s * c) + ch + 1) * hw,
                y.data() + ((s * c) + dst_ch) * hw);
    }
  }
  return y;
}

Tensor ChannelShuffle::backward(const Tensor& grad_out) {
  HS_CHECK(grad_out.rank() == 4 && grad_out.dim(1) % groups_ == 0,
           "ChannelShuffle::backward: bad grad shape");
  const std::size_t n = grad_out.dim(0), c = grad_out.dim(1),
                    h = grad_out.dim(2), w = grad_out.dim(3);
  const std::size_t per = c / groups_;
  const std::size_t hw = h * w;
  Tensor g({n, c, h, w});
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const std::size_t dst_ch = (ch % groups_) * per + ch / groups_;
      // forward moved ch -> dst_ch, so gradient flows dst_ch -> ch.
      std::copy(grad_out.data() + ((s * c) + dst_ch) * hw,
                grad_out.data() + ((s * c) + dst_ch + 1) * hw,
                g.data() + ((s * c) + ch) * hw);
    }
  }
  return g;
}

// ------------------------------------------------------------ ShuffleUnit --

ShuffleUnit::ShuffleUnit(std::size_t in_c, std::size_t out_c,
                         std::size_t stride, Rng& rng)
    : in_c_(in_c), out_c_(out_c), stride_(stride) {
  HS_CHECK(stride == 1 || stride == 2, "ShuffleUnit: stride must be 1 or 2");
  HS_CHECK(out_c % 2 == 0, "ShuffleUnit: out_c must be even");
  const std::size_t branch_c = out_c / 2;
  if (stride == 1) {
    HS_CHECK(in_c == out_c, "ShuffleUnit: stride-1 unit needs in_c == out_c");
    // Right branch processes half the channels.
    right_.add(conv_bn_act(branch_c, branch_c, 1, 1, 0, 1, Nonlinearity::kReLU,
                           rng));
    right_.add(conv_bn(branch_c, branch_c, 3, 1, 1, branch_c, rng));
    right_.add(conv_bn_act(branch_c, branch_c, 1, 1, 0, 1, Nonlinearity::kReLU,
                           rng));
  } else {
    HS_CHECK(out_c >= in_c, "ShuffleUnit: stride-2 unit must not shrink");
    // Left: depthwise downsample + pointwise. Right: bottleneck downsample.
    left_.add(conv_bn(in_c, in_c, 3, 2, 1, in_c, rng));
    left_.add(conv_bn_act(in_c, branch_c, 1, 1, 0, 1, Nonlinearity::kReLU,
                          rng));
    right_.add(conv_bn_act(in_c, branch_c, 1, 1, 0, 1, Nonlinearity::kReLU,
                           rng));
    right_.add(conv_bn(branch_c, branch_c, 3, 2, 1, branch_c, rng));
    right_.add(conv_bn_act(branch_c, branch_c, 1, 1, 0, 1, Nonlinearity::kReLU,
                           rng));
  }
}

Tensor ShuffleUnit::forward(const Tensor& x, bool train) {
  HS_CHECK(x.rank() == 4 && x.dim(1) == in_c_, "ShuffleUnit: input mismatch");
  if (train) cached_in_shape_ = x.shape();
  Tensor merged;
  if (stride_ == 1) {
    const std::size_t half = in_c_ / 2;
    Tensor a = channel_range(x, 0, half);
    Tensor b = right_.forward(channel_range(x, half, in_c_), train);
    merged = channel_concat(a, b);
  } else {
    Tensor a = left_.forward(x, train);
    Tensor b = right_.forward(x, train);
    merged = channel_concat(a, b);
  }
  ChannelShuffle shuffle(2);
  return shuffle.forward(merged, false);
}

Tensor ShuffleUnit::backward(const Tensor& grad_out) {
  HS_CHECK(!cached_in_shape_.empty(), "ShuffleUnit::backward: no forward");
  // Un-shuffle the incoming gradient (shuffle is parameter-free).
  ChannelShuffle shuffle(2);
  Tensor g = shuffle.backward(grad_out);
  const std::size_t half = out_c_ / 2;
  Tensor ga = channel_range(g, 0, half);
  Tensor gb = channel_range(g, half, out_c_);
  if (stride_ == 1) {
    Tensor gx_right = right_.backward(gb);
    // Reassemble the split: left half passed through untouched.
    return channel_concat(ga, gx_right);
  }
  Tensor gx = left_.backward(ga);
  gx += right_.backward(gb);
  return gx;
}

void ShuffleUnit::collect(ParamGroup& group) {
  if (stride_ == 2) left_.collect(group);
  right_.collect(group);
}

ShuffleUnit::ShuffleUnit(const ShuffleUnit& other)
    : in_c_(other.in_c_),
      out_c_(other.out_c_),
      stride_(other.stride_),
      left_(other.left_),
      right_(other.right_) {}

std::unique_ptr<Layer> ShuffleUnit::clone() const {
  return std::make_unique<ShuffleUnit>(*this);
}

}  // namespace hetero
