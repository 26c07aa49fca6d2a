// Imaging-substrate microbench: per-stage and full-capture-path wall time
// on the reference vs the fast path (the vectorized row-major rewrite,
// bit-exact by construction — tests/test_isp_parity.cpp).
//
// Writes BENCH_isp.json fresh (one JSONL record per case) and exits
// nonzero if the fast path fails to reach 3x reference throughput on the
// full ISP pipeline (raw -> denoise -> demosaic -> WB -> gamut -> tone ->
// JPEG), so CI can gate on the vectorization staying effective. The
// scene-to-tensor capture path is recorded but not gated: it includes the
// sensor's serial Box-Muller noise draws, which bit-exactness pins to the
// seed's per-pixel RNG order, so its ratio is capped well below the ISP's.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/builder.h"
#include "device/device_profile.h"
#include "image/fastpath.h"
#include "isp/pipeline.h"
#include "scene/scene_gen.h"

using namespace hetero;
using namespace hetero::bench;

namespace {

struct Case {
  const char* name;
  std::size_t iters;
  std::function<void(Rng&)> body;
};

/// One timed measurement: `iters` calls under the given path, from a fixed
/// seed so reference and fast run identical work. Returns microseconds per
/// iteration.
double run_case(const Case& c, img::PathKind kind) {
  img::set_active_path(kind);
  Rng rng(42);
  Timer t;
  for (std::size_t i = 0; i < c.iters; ++i) c.body(rng);
  return t.elapsed_s() * 1e6 / static_cast<double>(c.iters);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  const Scale scale;
  print_header("micro", "isp: reference vs fast path, per stage", scale);
  const img::PathKind env_path = img::active_path();

  const SceneGenerator gen(64);
  Rng setup_rng(1);
  const Image scene = gen.generate(0, setup_rng);
  const SensorModel sensor{SensorConfig{}};
  const RawImage raw = sensor.capture(scene, setup_rng);
  const Image rgb = demosaic(raw, DemosaicAlgo::kBilinear);
  const IspConfig isp_cfg = IspConfig::baseline();
  const DeviceProfile& device = device_by_name("GalaxyS9");
  const CaptureConfig cap_cfg;

  // Iteration counts put each measurement in the low-millisecond range so
  // a single timer read is well above clock granularity; paper scale
  // quadruples them.
  const std::size_t mul = scale.paper_scale() ? 4 : 1;
  const std::vector<Case> cases = {
      {"scene_generate", 8 * mul, [&](Rng& r) { (void)gen.generate(0, r); }},
      {"sensor_capture", 8 * mul,
       [&](Rng& r) { (void)sensor.capture(scene, r); }},
      {"demosaic_bilinear", 16 * mul,
       [&](Rng&) { (void)demosaic(raw, DemosaicAlgo::kBilinear); }},
      {"demosaic_ppg", 8 * mul,
       [&](Rng&) { (void)demosaic(raw, DemosaicAlgo::kPPG); }},
      {"demosaic_ahd", 8 * mul,
       [&](Rng&) { (void)demosaic(raw, DemosaicAlgo::kAHD); }},
      {"denoise_fbdd", 4 * mul,
       [&](Rng&) { (void)denoise(raw, DenoiseAlgo::kFBDD); }},
      {"denoise_wavelet", 4 * mul,
       [&](Rng&) { (void)denoise(raw, DenoiseAlgo::kWavelet); }},
      {"jpeg_roundtrip_q85", 8 * mul,
       [&](Rng&) { (void)jpeg_roundtrip(rgb, 85); }},
      {"full_isp_pipeline", 4 * mul,
       [&](Rng&) { (void)run_isp(raw, isp_cfg); }},
      {"capture_path", 2 * mul,
       [&](Rng& r) {
         const Image s = gen.generate(0, r);
         (void)capture_to_tensor(s, device, cap_cfg, r);
       }},
  };

  // Rep-major interleaving with per-rep paired ratios (the micro_round_e2e
  // idiom): reference and fast of one case run back to back within a rep,
  // so box-speed noise cancels in the ratio; the median pair then drops
  // outlier reps.
  const std::size_t reps = std::max<std::size_t>(scale.repeats(), 5);
  std::vector<std::vector<double>> ref_us(cases.size()), fast_us(cases.size());
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t c = 0; c < cases.size(); ++c) {
      ref_us[c].push_back(run_case(cases[c], img::PathKind::kReference));
      fast_us[c].push_back(run_case(cases[c], img::PathKind::kFast));
    }
  }
  img::set_active_path(env_path);

  Table table({"Case", "Reference us", "Fast us", "Speedup"});
  std::ofstream jsonl("BENCH_isp.json");  // fresh, not appended
  double isp_speedup = 0.0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    std::vector<double> ratios;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      ratios.push_back(ref_us[c][rep] / fast_us[c][rep]);
    }
    const double speedup = median(ratios);
    const double ref_med = median(ref_us[c]);
    const double fast_med = median(fast_us[c]);
    if (std::string(cases[c].name) == "full_isp_pipeline") {
      isp_speedup = speedup;
    }
    char ref_s[32], fast_s[32], sp_s[32];
    std::snprintf(ref_s, sizeof ref_s, "%.1f", ref_med);
    std::snprintf(fast_s, sizeof fast_s, "%.1f", fast_med);
    std::snprintf(sp_s, sizeof sp_s, "%.2fx", speedup);
    table.add_row({cases[c].name, ref_s, fast_s, sp_s});
    jsonl << "{\"bench\":\"micro_isp\",\"case\":\"" << cases[c].name
          << "\",\"reference_us\":" << ref_med << ",\"fast_us\":" << fast_med
          << ",\"speedup\":" << speedup << "}\n";
  }

  finish(table, "micro_isp");
  std::printf("\n[jsonl] BENCH_isp.json (fresh)\n");

  std::printf(
      "[check] fast vs reference full ISP pipeline (median paired): %.2fx "
      "(need >= 3.00x)\n",
      isp_speedup);
  if (isp_speedup < 3.0) {
    std::printf("[check] FAIL: fast ISP below the 3x acceptance bar\n");
    return 1;
  }
  return 0;
}
