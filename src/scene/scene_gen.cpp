#include "scene/scene_gen.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "image/color.h"
#include "image/fastpath.h"
#include "kernels/isa.h"
#include "util/rng.h"

namespace hetero {
namespace {

// The 12 classes mirror the paper's picks (Section 3.1). Shape + colour +
// texture combinations are pairwise distinct.
constexpr std::array<ClassRecipe, SceneGenerator::kNumClasses> kRecipes = {{
    // name            shape                  bg(h,s,v)          fg(h,s,v)          hueJit  texture                 strength
    {"chihuahua",      ShapeKind::kEllipse,   110, 0.30f, 0.45f, 30,  0.55f, 0.70f, 12, TextureKind::kNoise,     0.10f},
    {"altar",          ShapeKind::kVStripes,  260, 0.25f, 0.20f, 45,  0.65f, 0.80f, 10, TextureKind::kNone,      0.00f},
    {"cock",           ShapeKind::kTriangle,  90,  0.25f, 0.50f, 5,   0.90f, 0.85f, 10, TextureKind::kSpots,     0.15f},
    {"abaya",          ShapeKind::kRect,      40,  0.15f, 0.75f, 230, 0.55f, 0.15f, 15, TextureKind::kNone,      0.00f},
    {"ambulance",      ShapeKind::kCross,     210, 0.20f, 0.55f, 0,   0.95f, 0.90f, 6,  TextureKind::kNone,      0.00f},
    {"loggerhead",     ShapeKind::kRing,      190, 0.45f, 0.40f, 30,  0.60f, 0.45f, 10, TextureKind::kSpots,     0.20f},
    {"timber_wolf",    ShapeKind::kEllipse,   140, 0.20f, 0.30f, 220, 0.08f, 0.55f, 8,  TextureKind::kNoise,     0.25f},
    {"tiger_beetle",   ShapeKind::kDots,      60,  0.25f, 0.60f, 150, 0.85f, 0.55f, 15, TextureKind::kNone,      0.00f},
    {"accordion",      ShapeKind::kHStripes,  20,  0.20f, 0.35f, 0,   0.05f, 0.90f, 5,  TextureKind::kScanlines, 0.20f},
    {"french_loaf",    ShapeKind::kEllipse,   200, 0.15f, 0.70f, 35,  0.70f, 0.62f, 8,  TextureKind::kScanlines, 0.18f},
    {"barber_chair",   ShapeKind::kChecker,   0,   0.05f, 0.80f, 355, 0.80f, 0.70f, 8,  TextureKind::kNone,      0.00f},
    {"orangutan",      ShapeKind::kDiagStripes,120, 0.35f, 0.35f, 18, 0.85f, 0.75f, 10, TextureKind::kNoise,     0.18f},
}};

struct Instance {
  float cx, cy;       // shape centre (fraction of image)
  float scale;        // shape half-extent (fraction)
  float angle;        // rotation (radians)
  float fg_r, fg_g, fg_b;
  float bg_r, bg_g, bg_b;
  float freq;         // stripe/dot frequency
  float grad;         // background luminance gradient strength
};

/// Signed distance-ish membership test: returns coverage in [0,1] for the
/// pixel at rotated local coordinates (u, v) in units of the shape scale.
HS_ALWAYS_INLINE float shape_coverage(ShapeKind shape, float u, float v,
                                      float freq) {
  auto soft = [](float d) {  // smooth step around the boundary
    return std::clamp(0.5f - d * 8.0f, 0.0f, 1.0f);
  };
  switch (shape) {
    case ShapeKind::kEllipse:
      return soft(u * u / 1.0f + v * v / 0.55f - 1.0f);
    case ShapeKind::kRect:
      return soft(std::max(std::abs(u) - 0.9f, std::abs(v) - 1.1f));
    case ShapeKind::kTriangle: {
      // Upwards triangle: inside when v > -1 and |u| < (1 - (v+1)/2).
      const float t = (v + 1.0f) / 2.0f;  // 0 at base, 1 at apex
      if (t < 0.0f || t > 1.0f) return 0.0f;
      return soft(std::abs(u) - (1.0f - t));
    }
    case ShapeKind::kVStripes:
      return (std::sin(u * freq) > 0.0f &&
              std::abs(u) < 1.2f && std::abs(v) < 1.2f)
                 ? 1.0f
                 : 0.0f;
    case ShapeKind::kHStripes:
      return (std::sin(v * freq) > 0.0f &&
              std::abs(u) < 1.2f && std::abs(v) < 1.2f)
                 ? 1.0f
                 : 0.0f;
    case ShapeKind::kDiagStripes:
      return (std::sin((u + v) * freq * 0.7071f) > 0.0f &&
              std::abs(u) < 1.2f && std::abs(v) < 1.2f)
                 ? 1.0f
                 : 0.0f;
    case ShapeKind::kChecker:
      return ((std::sin(u * freq) > 0.0f) == (std::sin(v * freq) > 0.0f) &&
              std::abs(u) < 1.2f && std::abs(v) < 1.2f)
                 ? 1.0f
                 : 0.0f;
    case ShapeKind::kDots: {
      if (std::abs(u) > 1.2f || std::abs(v) > 1.2f) return 0.0f;
      const float gu = u * freq / 3.0f;
      const float gv = v * freq / 3.0f;
      const float du = gu - std::round(gu);
      const float dv = gv - std::round(gv);
      return soft((du * du + dv * dv) * 18.0f - 1.0f);
    }
    case ShapeKind::kCross:
      return soft(std::min(std::max(std::abs(u) - 0.33f, std::abs(v) - 1.0f),
                           std::max(std::abs(u) - 1.0f,
                                    std::abs(v) - 0.33f)));
    case ShapeKind::kRing: {
      const float r = std::sqrt(u * u + v * v);
      return soft(std::abs(r - 0.8f) - 0.28f);
    }
  }
  return 0.0f;
}

// ---------------------------------------------------------------- fast path
//
// All randomness is drawn before the pixel loop, so rendering is a pure
// per-pixel function; this variant only hoists the row/column-invariant
// subexpressions (same expressions, evaluated once) and writes through raw
// row pointers — per-pixel math is the seed loop verbatim. `fxs` is
// `size` floats of caller scratch, looked up outside the clone.
HS_TILED_CLONES
void render_scene_rows(const ClassRecipe& r, const Instance& inst,
                       const float* HS_RESTRICT fg, const float* HS_RESTRICT bg,
                       float phase, float ca, float sa, std::size_t size,
                       float* HS_RESTRICT fxs, float* HS_RESTRICT out) {
  for (std::size_t x = 0; x < size; ++x) {
    fxs[x] = (static_cast<float>(x) / size - inst.cx) / inst.scale;
  }
  for (std::size_t y = 0; y < size; ++y) {
    const float fy = (static_cast<float>(y) / size - inst.cy) / inst.scale;
    const float shade =
        1.0f + inst.grad * (static_cast<float>(y) / size - 0.5f) * 2.0f;
    float* row = out + y * size * 3;
    for (std::size_t x = 0; x < size; ++x) {
      const float fx = fxs[x];
      const float u = ca * fx + sa * fy;
      const float v = -sa * fx + ca * fy;
      const float cov = shape_coverage(r.shape, u, v, inst.freq);

      float px[3];
      for (int c = 0; c < 3; ++c) px[c] = bg[c] + cov * (fg[c] - bg[c]);

      if (cov > 0.0f && r.texture != TextureKind::kNone) {
        float t = 0.0f;
        switch (r.texture) {
          case TextureKind::kNoise: {
            const float n = std::sin((fx * 57.0f + phase) * 1.7f) *
                            std::sin((fy * 61.0f + phase) * 1.9f);
            t = n;
            break;
          }
          case TextureKind::kSpots: {
            const float s = std::sin(u * 9.0f + phase) * std::sin(v * 9.0f);
            t = s > 0.55f ? -1.0f : 0.0f;
            break;
          }
          case TextureKind::kScanlines:
            t = std::sin(v * 22.0f + phase) > 0.0f ? 0.5f : -0.5f;
            break;
          case TextureKind::kNone:
            break;
        }
        for (int c = 0; c < 3; ++c) {
          px[c] = std::clamp(px[c] * (1.0f + r.texture_strength * t * cov),
                             0.0f, 1.0f);
        }
      }

      for (std::size_t c = 0; c < 3; ++c) {
        row[x * 3 + c] = std::clamp(px[c] * shade, 0.0f, 1.0f);
      }
    }
  }
}

}  // namespace

SceneGenerator::SceneGenerator(std::size_t size) : size_(size) {
  HS_CHECK(size >= 16, "SceneGenerator: size must be >= 16");
}

const char* SceneGenerator::class_name(std::size_t cls) {
  HS_CHECK(cls < kNumClasses, "SceneGenerator: class out of range");
  return kRecipes[cls].name;
}

const ClassRecipe& SceneGenerator::recipe(std::size_t cls) {
  HS_CHECK(cls < kNumClasses, "SceneGenerator: class out of range");
  return kRecipes[cls];
}

Image SceneGenerator::generate(std::size_t cls, Rng& rng) const {
  HS_CHECK(cls < kNumClasses, "SceneGenerator::generate: class out of range");
  const ClassRecipe& r = kRecipes[cls];

  Instance inst;
  inst.cx = rng.uniform_f(0.38f, 0.62f);
  inst.cy = rng.uniform_f(0.38f, 0.62f);
  inst.scale = rng.uniform_f(0.24f, 0.38f);
  inst.angle = rng.uniform_f(-0.35f, 0.35f);
  inst.freq = rng.uniform_f(5.0f, 7.5f);
  inst.grad = rng.uniform_f(-0.15f, 0.15f);

  const float fg_hue = r.fg_hue + rng.uniform_f(-r.hue_jitter, r.hue_jitter);
  const float fg_sat = std::clamp(r.fg_sat + rng.uniform_f(-0.08f, 0.08f),
                                  0.0f, 1.0f);
  const float fg_val = std::clamp(r.fg_val + rng.uniform_f(-0.10f, 0.10f),
                                  0.05f, 1.0f);
  hsv_to_rgb(fg_hue, fg_sat, fg_val, inst.fg_r, inst.fg_g, inst.fg_b);

  const float bg_hue = r.bg_hue + rng.uniform_f(-12.0f, 12.0f);
  const float bg_sat = std::clamp(r.bg_sat + rng.uniform_f(-0.06f, 0.06f),
                                  0.0f, 1.0f);
  const float bg_val = std::clamp(r.bg_val + rng.uniform_f(-0.08f, 0.08f),
                                  0.05f, 1.0f);
  hsv_to_rgb(bg_hue, bg_sat, bg_val, inst.bg_r, inst.bg_g, inst.bg_b);

  // Displayed colours are sRGB-encoded on the monitor; the scene radiance is
  // the *linear* light the camera sees, so decode.
  const float fg[3] = {srgb_decode(inst.fg_r), srgb_decode(inst.fg_g),
                       srgb_decode(inst.fg_b)};
  const float bg[3] = {srgb_decode(inst.bg_r), srgb_decode(inst.bg_g),
                       srgb_decode(inst.bg_b)};

  Image img(size_, size_);
  const float ca = std::cos(inst.angle), sa = std::sin(inst.angle);
  // Deterministic per-instance texture phase.
  const float phase = rng.uniform_f(0.0f, 100.0f);

  if (img::fast_path()) {
    render_scene_rows(r, inst, fg, bg, phase, ca, sa, size_,
                      img::scratch(img::kSlotScene, size_), img.data());
    return img;
  }

  for (std::size_t y = 0; y < size_; ++y) {
    for (std::size_t x = 0; x < size_; ++x) {
      const float fx = (static_cast<float>(x) / size_ - inst.cx) / inst.scale;
      const float fy = (static_cast<float>(y) / size_ - inst.cy) / inst.scale;
      const float u = ca * fx + sa * fy;
      const float v = -sa * fx + ca * fy;
      const float cov = shape_coverage(r.shape, u, v, inst.freq);

      float px[3];
      for (int c = 0; c < 3; ++c) px[c] = bg[c] + cov * (fg[c] - bg[c]);

      // Foreground texture (value-noise-ish, hash-based so it is cheap and
      // deterministic).
      if (cov > 0.0f && r.texture != TextureKind::kNone) {
        float t = 0.0f;
        switch (r.texture) {
          case TextureKind::kNoise: {
            const float n =
                std::sin((fx * 57.0f + phase) * 1.7f) *
                std::sin((fy * 61.0f + phase) * 1.9f);
            t = n;
            break;
          }
          case TextureKind::kSpots: {
            const float s = std::sin(u * 9.0f + phase) * std::sin(v * 9.0f);
            t = s > 0.55f ? -1.0f : 0.0f;
            break;
          }
          case TextureKind::kScanlines:
            t = std::sin(v * 22.0f + phase) > 0.0f ? 0.5f : -0.5f;
            break;
          case TextureKind::kNone:
            break;
        }
        for (int c = 0; c < 3; ++c) {
          px[c] = std::clamp(px[c] * (1.0f + r.texture_strength * t * cov),
                             0.0f, 1.0f);
        }
      }

      // Background luminance gradient (monitor viewing-angle falloff).
      const float shade =
          1.0f + inst.grad * (static_cast<float>(y) / size_ - 0.5f) * 2.0f;
      for (std::size_t c = 0; c < 3; ++c) {
        img.at(y, x, c) = std::clamp(px[c] * shade, 0.0f, 1.0f);
      }
    }
  }
  return img;
}

}  // namespace hetero
