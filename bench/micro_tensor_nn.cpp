// Microbenchmarks (google-benchmark) for the compute substrate: conv layer
// and model forward/backward throughput.
#include <benchmark/benchmark.h>

#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "util/rng.h"

namespace hetero {
namespace {

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(3);
  const auto groups = static_cast<std::size_t>(state.range(0));
  Conv2d conv(16, 16, 3, 1, 1, groups, rng, false);
  Tensor x = Tensor::randn({4, 16, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(1)->Arg(16);  // dense vs depthwise

void BM_ModelForward(benchmark::State& state) {
  Rng rng(4);
  ModelSpec spec;
  auto model = make_model(spec, rng);
  Tensor x = Tensor::rand_uniform({8, 3, 32, 32}, rng, 0, 1);
  for (auto _ : state) {
    Tensor y = model->forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_ModelForward);

void BM_ModelTrainStep(benchmark::State& state) {
  Rng rng(5);
  ModelSpec spec;
  auto model = make_model(spec, rng);
  Tensor x = Tensor::rand_uniform({10, 3, 32, 32}, rng, 0, 1);
  std::vector<std::size_t> labels(10);
  for (std::size_t i = 0; i < 10; ++i) labels[i] = i % 12;
  SoftmaxCrossEntropy ce;
  for (auto _ : state) {
    Tensor logits = model->forward(x, true);
    const auto l = ce(logits, labels);
    Tensor g = model->backward(l.grad);
    model->zero_grad();
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_ModelTrainStep);

}  // namespace
}  // namespace hetero

BENCHMARK_MAIN();
