// Fast vs reference ISP path parity: the fast imaging substrate is
// bit-exact by construction (vectorization only widens across independent
// pixels; per-pixel FP evaluation order is the seed's), so every stage and
// the composed capture path must produce byte-identical outputs across all
// Table-3 stage options and all nine device profiles.
#include <gtest/gtest.h>

#include <cstring>

#include "data/builder.h"
#include "device/device_profile.h"
#include "hetero/transforms.h"
#include "image/fastpath.h"
#include "isp/pipeline.h"
#include "isp/sensor.h"
#include "scene/flair_gen.h"
#include "scene/scene_gen.h"
#include "util/rng.h"

namespace hetero {
namespace {

/// Restores the env-selected path when a test exits.
struct PathGuard {
  img::PathKind saved = img::active_path();
  ~PathGuard() { img::set_active_path(saved); }
};

void expect_bytes_equal(std::span<const float> a, std::span<const float> b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << ": fast path output differs from reference";
}

/// Runs `fn` (Rng -> Image) under both paths from the same seed and asserts
/// byte equality.
template <typename Fn>
void expect_path_parity(Fn&& fn, const std::string& what,
                        std::uint64_t seed = 7) {
  PathGuard guard;
  img::set_active_path(img::PathKind::kReference);
  Rng r_ref(seed);
  const auto ref = fn(r_ref);
  img::set_active_path(img::PathKind::kFast);
  Rng r_fast(seed);
  const auto fast = fn(r_fast);
  expect_bytes_equal(ref.flat(), fast.flat(), what);
}

TEST(IspParity, FullCapturePathAcrossAllDevices) {
  const SceneGenerator scenes(64);
  const auto& devices = paper_devices();
  CaptureConfig cfg;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    expect_path_parity(
        [&](Rng& rng) {
          const Image scene = scenes.generate(d % SceneGenerator::kNumClasses,
                                              rng);
          return Image::from_tensor(
              capture_to_tensor(scene, devices[d], cfg, rng));
        },
        "capture path on " + devices[d].name, 11 + d);
  }
}

TEST(IspParity, EveryStageOptionIsByteIdentical) {
  const SceneGenerator scenes(64);
  const DeviceProfile& device = device_by_name("GalaxyS9");
  constexpr IspStage kStages[] = {IspStage::kDenoise,      IspStage::kDemosaic,
                                  IspStage::kWhiteBalance, IspStage::kGamut,
                                  IspStage::kTone,         IspStage::kCompress};
  for (IspStage stage : kStages) {
    for (int option = 1; option <= 2; ++option) {
      const IspConfig isp = device.isp.with_stage_option(stage, option);
      expect_path_parity(
          [&](Rng& rng) {
            const Image scene = scenes.generate(3, rng);
            const RawImage raw = device.sensor_model().capture(scene, rng);
            return run_isp_resized(raw, isp, 32);
          },
          std::string(isp_stage_name(stage)) + " option " +
              std::to_string(option));
    }
  }
}

TEST(IspParity, EveryDemosaicAlgorithm) {
  const SceneGenerator scenes(64);
  const DeviceProfile& device = device_by_name("Pixel5");
  for (DemosaicAlgo algo :
       {DemosaicAlgo::kBilinear, DemosaicAlgo::kPPG, DemosaicAlgo::kAHD,
        DemosaicAlgo::kPixelBinning}) {
    IspConfig isp = device.isp;
    isp.demosaic = algo;
    expect_path_parity(
        [&](Rng& rng) {
          const Image scene = scenes.generate(5, rng);
          const RawImage raw = device.sensor_model().capture(scene, rng);
          return run_isp(raw, isp);
        },
        std::string("demosaic ") + demosaic_name(algo));
  }
}

TEST(IspParity, EveryDenoiseAlgorithm) {
  const SceneGenerator scenes(64);
  const DeviceProfile& device = device_by_name("VELVET");
  for (DenoiseAlgo algo :
       {DenoiseAlgo::kNone, DenoiseAlgo::kFBDD, DenoiseAlgo::kWavelet}) {
    IspConfig isp = device.isp;
    isp.denoise = algo;
    expect_path_parity(
        [&](Rng& rng) {
          const Image scene = scenes.generate(8, rng);
          const RawImage raw = device.sensor_model().capture(scene, rng);
          return run_isp(raw, isp);
        },
        std::string("denoise ") + denoise_name(algo));
  }
}

TEST(IspParity, OddRawSizesExerciseBorderPaths) {
  // Non-multiple-of-8 geometries (mosaics must be even, so 18/30/34) force
  // every border/edge branch of the fast stages.
  const SceneGenerator scenes(64);
  DeviceProfile device = device_by_name("GalaxyS6");
  for (std::size_t size : {18u, 30u, 34u}) {
    device.sensor.raw_height = size;
    device.sensor.raw_width = size;
    expect_path_parity(
        [&](Rng& rng) {
          const Image scene = scenes.generate(1, rng);
          const RawImage raw = device.sensor_model().capture(scene, rng);
          return run_isp(raw, device.isp);
        },
        "raw size " + std::to_string(size));
  }
}

TEST(IspParity, FlairSceneGeneration) {
  const FlairSceneGenerator scenes(48);
  expect_path_parity(
      [&](Rng& rng) {
        const auto prefs = scenes.sample_user_preferences(rng);
        const auto labels = scenes.sample_label_set(prefs, rng);
        return scenes.generate(labels.empty() ? std::vector<std::size_t>{0}
                                              : labels,
                               rng);
      },
      "flair scene");
}

TEST(IspParity, HeteroTransforms) {
  PathGuard guard;
  for (TransformKind kind :
       {TransformKind::kWhiteBalance, TransformKind::kGamma,
        TransformKind::kAffine, TransformKind::kGaussianNoise}) {
    Tensor base({3, 24, 24});
    Rng fill(3);
    for (float& v : base.flat()) v = fill.uniform_f(0.0f, 1.0f);

    img::set_active_path(img::PathKind::kReference);
    Tensor ref = base;
    Rng r_ref(19);
    apply_transform(ref, kind, 0.8f, r_ref);

    img::set_active_path(img::PathKind::kFast);
    Tensor fast = base;
    Rng r_fast(19);
    apply_transform(fast, kind, 0.8f, r_fast);

    expect_bytes_equal(ref.flat(), fast.flat(),
                       std::string("transform ") + transform_name(kind));
  }
}

TEST(IspParity, ScratchArenaStopsGrowingWhenWarm) {
  PathGuard guard;
  img::set_active_path(img::PathKind::kFast);
  const SceneGenerator scenes(64);
  const DeviceProfile& device = device_by_name("GalaxyS9");
  CaptureConfig cfg;
  auto capture_once = [&](std::uint64_t seed) {
    Rng rng(seed);
    const Image scene = scenes.generate(2, rng);
    return capture_to_tensor(scene, device, cfg, rng);
  };
  (void)capture_once(1);  // warm the arenas for this geometry
  const std::uint64_t grown = img::scratch_grow_count();
  for (std::uint64_t s = 2; s < 6; ++s) (void)capture_once(s);
  EXPECT_EQ(grown, img::scratch_grow_count())
      << "steady-state captures must not allocate arena memory";
}

}  // namespace
}  // namespace hetero
