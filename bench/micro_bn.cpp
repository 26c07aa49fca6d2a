// Microbenchmark: a batch norm and the activation after it (none, ReLU or
// h-swish), as every conv-bn-act unit of mobile-mini and shuffle-mini runs
// them, at the paper batch size B=10 on 32x32 inputs. Times a training
// forward + backward and an eval forward per (channels, plane, activation),
// then the per-model totals over the models' actual layer mix.
//
// Appends one JSONL record per row plus one TOTAL record per model to
// BENCH_kernels.json. Honours HS_SCALE / HS_SEED.
#include <algorithm>
#include <fstream>
#include <map>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "nn/batchnorm.h"

using namespace hetero;
using namespace hetero::bench;

namespace {

constexpr std::size_t kBatch = 10;  // paper batch size

/// One batch norm position of a model: channels, plane side, activation.
struct BnLayer {
  std::size_t c, side;
  Nonlinearity act;
  std::size_t mult;  // positions with this shape in the model
};

struct ModelMix {
  const char* model;
  std::vector<BnLayer> layers;
};

// Every batch norm of the two models (mobile-mini 14, shuffle-mini 18),
// collapsed to distinct shapes with their multiplicity (model_zoo.cpp,
// blocks.cpp).
std::vector<ModelMix> model_mixes() {
  using N = Nonlinearity;
  return {
      {"mobile-mini",
       {{8, 16, N::kHSwish, 1},  // stem
        {16, 16, N::kReLU, 2},   // ir1 expand, depthwise
        {8, 16, N::kNone, 1},    // ir1 project
        {24, 16, N::kReLU, 1},   // ir2 expand
        {24, 8, N::kReLU, 1},    // ir2 depthwise
        {16, 8, N::kNone, 2},    // ir2, ir3 project
        {48, 8, N::kHSwish, 3},  // ir3 expand, depthwise; ir4 expand
        {48, 4, N::kHSwish, 2},  // ir4 depthwise, head 1x1
        {24, 4, N::kNone, 1}}},  // ir4 project
      {"shuffle-mini",
       {{12, 16, N::kReLU, 2},   // stem, su1 right pointwise
        {12, 8, N::kNone, 3},    // su1 depthwise x2, su2 depthwise
        {12, 8, N::kReLU, 4},    // su1 pointwise x2, su2 pointwise x2
        {24, 8, N::kReLU, 1},    // su3 right pointwise
        {24, 4, N::kNone, 3},    // su3 depthwise x2, su4 depthwise
        {24, 4, N::kReLU, 4},    // su3 pointwise x2, su4 pointwise x2
        {64, 4, N::kReLU, 1}}},  // head 1x1
  };
}

const char* act_name(Nonlinearity act) {
  switch (act) {
    case Nonlinearity::kReLU:
      return "relu";
    case Nonlinearity::kHSwish:
      return "hswish";
    default:
      return "none";
  }
}

struct Timing {
  double train_s = 0.0, eval_s = 0.0;
};

/// Best-of-reps seconds per call of a training forward + backward and of
/// an eval forward.
Timing time_bn(std::size_t c, std::size_t side, Nonlinearity act,
               std::size_t reps, Rng& rng) {
  BatchNorm2d bn(c, act);
  const Tensor x = Tensor::randn({kBatch, c, side, side}, rng, 2.0f);
  const Tensor dy = Tensor::randn({kBatch, c, side, side}, rng, 1.0f);
  constexpr std::size_t kInner = 20;  // calls per timed rep
  auto best_of = [&](auto&& call) {
    call();  // warm-up
    double best = 1e100;
    for (std::size_t r = 0; r < reps; ++r) {
      Timer t;
      for (std::size_t i = 0; i < kInner; ++i) call();
      best = std::min(best, t.elapsed_s() / kInner);
    }
    return best;
  };
  Timing out;
  out.train_s = best_of([&] {
    (void)bn.forward(x, true);
    (void)bn.backward(dy);
  });
  out.eval_s = best_of([&] { (void)bn.forward(x, false); });
  return out;
}

}  // namespace

int main() {
  const Scale scale;
  print_header("micro", "BatchNorm2d + activation: train fwd+bwd, eval fwd",
               scale);
  const std::size_t reps = static_cast<std::size_t>(scale.n(20, 100));
  Rng rng(scale.seed());
  const std::vector<ModelMix> mixes = model_mixes();

  Table table({"Shape", "Act", "Train us", "Eval us"});
  std::ofstream jsonl("BENCH_kernels.json", std::ios::app);

  // Every distinct (channels, side) of either model, under every activation.
  std::map<std::tuple<std::size_t, std::size_t, Nonlinearity>, Timing> timed;
  for (const ModelMix& m : mixes) {
    for (const BnLayer& l : m.layers) {
      for (Nonlinearity act : {Nonlinearity::kNone, Nonlinearity::kReLU,
                               Nonlinearity::kHSwish}) {
        const auto key = std::make_tuple(l.c, l.side, act);
        if (timed.count(key)) continue;
        const Timing t = time_bn(l.c, l.side, act, reps, rng);
        timed[key] = t;
        char shape[32], train_us[32], eval_us[32];
        std::snprintf(shape, sizeof shape, "c%zu.%zux%zu", l.c, l.side,
                      l.side);
        std::snprintf(train_us, sizeof train_us, "%.2f", t.train_s * 1e6);
        std::snprintf(eval_us, sizeof eval_us, "%.2f", t.eval_s * 1e6);
        table.add_row({shape, act_name(act), train_us, eval_us});
        jsonl << "{\"bench\":\"micro_bn\",\"shape\":\"" << shape
              << "\",\"act\":\"" << act_name(act) << "\",\"n\":" << kBatch
              << ",\"c\":" << l.c << ",\"hw\":" << l.side
              << ",\"train_ms\":" << t.train_s * 1e3
              << ",\"eval_ms\":" << t.eval_s * 1e3 << "}\n";
      }
    }
  }

  for (const ModelMix& m : mixes) {
    double train = 0.0, eval = 0.0;
    for (const BnLayer& l : m.layers) {
      const Timing& t = timed.at(std::make_tuple(l.c, l.side, l.act));
      train += static_cast<double>(l.mult) * t.train_s;
      eval += static_cast<double>(l.mult) * t.eval_s;
    }
    char train_us[32], eval_us[32];
    std::snprintf(train_us, sizeof train_us, "%.2f", train * 1e6);
    std::snprintf(eval_us, sizeof eval_us, "%.2f", eval * 1e6);
    table.add_row({std::string("TOTAL ") + m.model, "mix", train_us, eval_us});
    jsonl << "{\"bench\":\"micro_bn\",\"shape\":\"TOTAL\",\"model\":\""
          << m.model << "\",\"n\":" << kBatch << ",\"train_ms\":"
          << train * 1e3 << ",\"eval_ms\":" << eval * 1e3 << "}\n";
  }

  finish(table, "micro_bn");
  std::printf(
      "\n[jsonl] BENCH_kernels.json (appended)\n"
      "TOTAL sums each model's batch norms with their multiplicity and the "
      "activation each one carries.\n");
  return 0;
}
