#include "image/color.h"

#include <cmath>
#include <stdexcept>

#include "image/fastpath.h"
#include "kernels/isa.h"

namespace hetero {
namespace {

// Same per-pixel left-to-right sum as the scalar loop below; clones only
// widen across pixels (no FMA), so the result is byte-identical.
HS_TILED_CLONES
void color_matrix_rows(const float* HS_RESTRICT src, float* HS_RESTRICT dst,
                       std::size_t n, float m0, float m1, float m2, float m3,
                       float m4, float m5, float m6, float m7, float m8) {
  for (std::size_t i = 0; i < n; ++i) {
    const float r = src[3 * i], g = src[3 * i + 1], b = src[3 * i + 2];
    dst[3 * i] = m0 * r + m1 * g + m2 * b;
    dst[3 * i + 1] = m3 * r + m4 * g + m5 * b;
    dst[3 * i + 2] = m6 * r + m7 * g + m8 * b;
  }
}

}  // namespace

Image apply_color_matrix(const Image& img, const ColorMatrix& m) {
  Image out(img.height(), img.width());
  const float* src = img.data();
  float* dst = out.data();
  const std::size_t n = img.num_pixels();
  if (img::fast_path()) {
    color_matrix_rows(src, dst, n, m[0], m[1], m[2], m[3], m[4], m[5], m[6],
                      m[7], m[8]);
    return out;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const float r = src[3 * i], g = src[3 * i + 1], b = src[3 * i + 2];
    dst[3 * i] = m[0] * r + m[1] * g + m[2] * b;
    dst[3 * i + 1] = m[3] * r + m[4] * g + m[5] * b;
    dst[3 * i + 2] = m[6] * r + m[7] * g + m[8] * b;
  }
  return out;
}

ColorMatrix matmul3(const ColorMatrix& a, const ColorMatrix& b) {
  ColorMatrix c{};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      float s = 0.0f;
      for (int k = 0; k < 3; ++k) s += a[i * 3 + k] * b[k * 3 + j];
      c[i * 3 + j] = s;
    }
  }
  return c;
}

ColorMatrix identity3() {
  return {1.0f, 0.0f, 0.0f, 0.0f, 1.0f, 0.0f, 0.0f, 0.0f, 1.0f};
}

ColorMatrix inverse3(const ColorMatrix& m) {
  const double a = m[0], b = m[1], c = m[2];
  const double d = m[3], e = m[4], f = m[5];
  const double g = m[6], h = m[7], i = m[8];
  const double det =
      a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g);
  if (std::abs(det) < 1e-12) {
    throw std::invalid_argument("inverse3: singular matrix");
  }
  const double inv = 1.0 / det;
  return {static_cast<float>((e * i - f * h) * inv),
          static_cast<float>((c * h - b * i) * inv),
          static_cast<float>((b * f - c * e) * inv),
          static_cast<float>((f * g - d * i) * inv),
          static_cast<float>((a * i - c * g) * inv),
          static_cast<float>((c * d - a * f) * inv),
          static_cast<float>((d * h - e * g) * inv),
          static_cast<float>((b * g - a * h) * inv),
          static_cast<float>((a * e - b * d) * inv)};
}

float srgb_encode(float linear) {
  if (linear <= 0.0f) return 0.0f;
  if (linear <= 0.0031308f) return 12.92f * linear;
  return 1.055f * std::pow(linear, 1.0f / 2.4f) - 0.055f;
}

float srgb_decode(float encoded) {
  if (encoded <= 0.0f) return 0.0f;
  if (encoded <= 0.04045f) return encoded / 12.92f;
  return std::pow((encoded + 0.055f) / 1.055f, 2.4f);
}

Image srgb_encode(const Image& linear) {
  Image out = linear;
  for (float& v : out.flat()) v = srgb_encode(v);
  return out;
}

Image srgb_decode(const Image& encoded) {
  Image out = encoded;
  for (float& v : out.flat()) v = srgb_decode(v);
  return out;
}

// IEC 61966-2-1 sRGB <-> XYZ (D65).
const ColorMatrix kSrgbToXyz = {0.4124f, 0.3576f, 0.1805f,
                                0.2126f, 0.7152f, 0.0722f,
                                0.0193f, 0.1192f, 0.9505f};
const ColorMatrix kXyzToSrgb = {3.2406f,  -1.5372f, -0.4986f,
                                -0.9689f, 1.8758f,  0.0415f,
                                0.0557f,  -0.2040f, 1.0570f};

// ROMM/ProPhoto primaries (D50); we fold the white point into the matrix,
// which is adequate to simulate an sRGB-trained model seeing ProPhoto data.
namespace {
const ColorMatrix kXyzToProphoto = {1.3460f,  -0.2556f, -0.0511f,
                                    -0.5446f, 1.5082f,  0.0205f,
                                    0.0f,     0.0f,     1.2123f};
}  // namespace

const ColorMatrix kSrgbToProphoto = matmul3(kXyzToProphoto, kSrgbToXyz);
const ColorMatrix kProphotoToSrgb = inverse3(kSrgbToProphoto);

// SMPTE Display-P3 (D65): much closer to sRGB than ProPhoto.
const ColorMatrix kSrgbToDisplayP3 = {0.8225f, 0.1774f, 0.0000f,
                                      0.0332f, 0.9669f, 0.0000f,
                                      0.0171f, 0.0724f, 0.9108f};
const ColorMatrix kDisplayP3ToSrgb = inverse3(kSrgbToDisplayP3);

void hsv_to_rgb(float h, float s, float v, float& r, float& g, float& b) {
  h = std::fmod(h, 360.0f);
  if (h < 0) h += 360.0f;
  const float c = v * s;
  const float hp = h / 60.0f;
  const float x = c * (1.0f - std::abs(std::fmod(hp, 2.0f) - 1.0f));
  float r1 = 0, g1 = 0, b1 = 0;
  if (hp < 1) {
    r1 = c; g1 = x;
  } else if (hp < 2) {
    r1 = x; g1 = c;
  } else if (hp < 3) {
    g1 = c; b1 = x;
  } else if (hp < 4) {
    g1 = x; b1 = c;
  } else if (hp < 5) {
    r1 = x; b1 = c;
  } else {
    r1 = c; b1 = x;
  }
  const float m = v - c;
  r = r1 + m;
  g = g1 + m;
  b = b1 + m;
}

}  // namespace hetero
