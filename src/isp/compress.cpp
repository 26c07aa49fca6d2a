#include "isp/compress.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "image/fastpath.h"
#include "kernels/isa.h"

namespace hetero {
namespace {

// ITU-T T.81 Annex K quantization tables.
constexpr std::array<int, 64> kLumaQuant = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

constexpr std::array<int, 64> kChromaQuant = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

/// 8x8 DCT-II basis, precomputed.
struct DctBasis {
  std::array<float, 64> c{};  // c[u][x] = alpha(u) cos((2x+1)u pi / 16)
  DctBasis() {
    for (int u = 0; u < 8; ++u) {
      const float alpha =
          u == 0 ? 1.0f / std::sqrt(8.0f) : std::sqrt(2.0f / 8.0f);
      for (int x = 0; x < 8; ++x) {
        c[static_cast<std::size_t>(u * 8 + x)] =
            alpha * std::cos((2 * x + 1) * u * std::numbers::pi_v<float> /
                             16.0f);
      }
    }
  }
};

// dct_basis, dct8x8 and idct8x8 are force-inlined: jpeg_channel_fast's wide
// clone runs them on leftover blocks (isa.h). Each output keeps its own
// seed chain, so the inlined copies compute the same bits.
HS_ALWAYS_INLINE const DctBasis& dct_basis() {
  static const DctBasis basis;
  return basis;
}

/// Forward 8x8 DCT of block (row-major), in place via temp.
HS_ALWAYS_INLINE void dct8x8(std::array<float, 64>& block) {
  const auto& c = dct_basis().c;
  std::array<float, 64> tmp{};
  // Rows.
  for (int y = 0; y < 8; ++y) {
    for (int u = 0; u < 8; ++u) {
      float s = 0.0f;
      for (int x = 0; x < 8; ++x) {
        s += block[static_cast<std::size_t>(y * 8 + x)] *
             c[static_cast<std::size_t>(u * 8 + x)];
      }
      tmp[static_cast<std::size_t>(y * 8 + u)] = s;
    }
  }
  // Columns.
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      float s = 0.0f;
      for (int y = 0; y < 8; ++y) {
        s += tmp[static_cast<std::size_t>(y * 8 + u)] *
             c[static_cast<std::size_t>(v * 8 + y)];
      }
      block[static_cast<std::size_t>(v * 8 + u)] = s;
    }
  }
}

/// Inverse 8x8 DCT.
HS_ALWAYS_INLINE void idct8x8(std::array<float, 64>& block) {
  const auto& c = dct_basis().c;
  std::array<float, 64> tmp{};
  for (int v = 0; v < 8; ++v) {
    for (int x = 0; x < 8; ++x) {
      float s = 0.0f;
      for (int u = 0; u < 8; ++u) {
        s += block[static_cast<std::size_t>(v * 8 + u)] *
             c[static_cast<std::size_t>(u * 8 + x)];
      }
      tmp[static_cast<std::size_t>(v * 8 + x)] = s;
    }
  }
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      float s = 0.0f;
      for (int v = 0; v < 8; ++v) {
        s += tmp[static_cast<std::size_t>(v * 8 + x)] *
             c[static_cast<std::size_t>(v * 8 + y)];
      }
      block[static_cast<std::size_t>(y * 8 + x)] = s;
    }
  }
}

// ---------------------------------------------------------------- fast path
//
// Same per-block DCT math vectorized ACROSS blocks: eight horizontally
// adjacent blocks ride in an element-major SoA slab (element i of block b
// at soa[i * 8 + b]), so every scalar op of the seed per-block loops
// becomes one 8-lane vector op. Each lane accumulates exactly the seed
// term order (x, then y ascending), so per-block results are
// byte-identical; leftover and clipped blocks fall back to the seed
// per-block routines. Vectorizing WITHIN a block is a loss here: the
// seed's independent dot products already SLP-vectorize at -O3, and the
// transposed-accumulation form measures ~3x slower per block.

constexpr int kJpegLanes = 8;

/// Forward DCT of kJpegLanes blocks in SoA layout.
HS_ALWAYS_INLINE void dct8x8_soa(float* HS_RESTRICT soa,
                                 const float* HS_RESTRICT c) {
  float tmp[64 * kJpegLanes];
  // Rows: tmp[y][u] = sum_x block[y][x] * c[u][x], accumulated x-ascending.
  for (int y = 0; y < 8; ++y) {
    for (int u = 0; u < 8; ++u) {
      float acc[kJpegLanes] = {};
      for (int x = 0; x < 8; ++x) {
        const float cv = c[u * 8 + x];
        const float* HS_RESTRICT s = soa + (y * 8 + x) * kJpegLanes;
        for (int b = 0; b < kJpegLanes; ++b) acc[b] += s[b] * cv;
      }
      float* HS_RESTRICT d = tmp + (y * 8 + u) * kJpegLanes;
      for (int b = 0; b < kJpegLanes; ++b) d[b] = acc[b];
    }
  }
  // Columns: out[v][u] = sum_y tmp[y][u] * c[v][y], accumulated y-ascending.
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      float acc[kJpegLanes] = {};
      for (int y = 0; y < 8; ++y) {
        const float cv = c[v * 8 + y];
        const float* HS_RESTRICT s = tmp + (y * 8 + u) * kJpegLanes;
        for (int b = 0; b < kJpegLanes; ++b) acc[b] += s[b] * cv;
      }
      float* HS_RESTRICT d = soa + (v * 8 + u) * kJpegLanes;
      for (int b = 0; b < kJpegLanes; ++b) d[b] = acc[b];
    }
  }
}

/// Inverse DCT of kJpegLanes blocks in SoA layout.
HS_ALWAYS_INLINE void idct8x8_soa(float* HS_RESTRICT soa,
                                  const float* HS_RESTRICT c) {
  float tmp[64 * kJpegLanes];
  // tmp[v][x] = sum_u block[v][u] * c[u][x], accumulated u-ascending.
  for (int v = 0; v < 8; ++v) {
    for (int x = 0; x < 8; ++x) {
      float acc[kJpegLanes] = {};
      for (int u = 0; u < 8; ++u) {
        const float cv = c[u * 8 + x];
        const float* HS_RESTRICT s = soa + (v * 8 + u) * kJpegLanes;
        for (int b = 0; b < kJpegLanes; ++b) acc[b] += s[b] * cv;
      }
      float* HS_RESTRICT d = tmp + (v * 8 + x) * kJpegLanes;
      for (int b = 0; b < kJpegLanes; ++b) d[b] = acc[b];
    }
  }
  // out[y][x] = sum_v tmp[v][x] * c[v][y], accumulated v-ascending.
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      float acc[kJpegLanes] = {};
      for (int v = 0; v < 8; ++v) {
        const float cv = c[v * 8 + y];
        const float* HS_RESTRICT s = tmp + (v * 8 + x) * kJpegLanes;
        for (int b = 0; b < kJpegLanes; ++b) acc[b] += s[b] * cv;
      }
      float* HS_RESTRICT d = soa + (y * 8 + x) * kJpegLanes;
      for (int b = 0; b < kJpegLanes; ++b) d[b] = acc[b];
    }
  }
}

/// Exact std::round (half away from zero) for finite x, in a form GCC can
/// vectorize: libm roundf is a per-element call the vectorizer cannot
/// widen, while trunc maps straight to a rounding instruction. `x -
/// trunc(x)` is exact for every finite float (the fractional part is
/// always representable), doubling it is exact (exponent bump), and
/// trunc(2 * frac) is then -1/0/+1 exactly when roundf would step away
/// from zero — branchless, so the quant loop widens to full vectors.
/// Sole deviation: -0.0 maps to +0.0 (roundf keeps the sign) — harmless
/// downstream because the quantized coefficients only reach the output
/// through sums where +-0.0 contribute identically.
HS_ALWAYS_INLINE float round_away(float x) {
  const float t = std::trunc(x);
  return t + std::trunc(2.0f * (x - t));
}

// The fast path keeps YCbCr PLANAR (one contiguous plane per channel) so
// the block loop reads unit-stride rows with no per-channel deinterleave
// pass; per-pixel arithmetic is the seed's, only the storage layout
// differs, so values are bit-identical.
HS_TILED_CLONES
void rgb_to_ycc_planar(const float* HS_RESTRICT src, float* HS_RESTRICT yp,
                       float* HS_RESTRICT cbp, float* HS_RESTRICT crp,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float r = src[3 * i] * 255.0f;
    const float g = src[3 * i + 1] * 255.0f;
    const float b = src[3 * i + 2] * 255.0f;
    yp[i] = 0.299f * r + 0.587f * g + 0.114f * b;
    cbp[i] = -0.168736f * r - 0.331264f * g + 0.5f * b + 128.0f;
    crp[i] = 0.5f * r - 0.418688f * g - 0.081312f * b + 128.0f;
  }
}

HS_TILED_CLONES
void ycc_to_rgb_planar(const float* HS_RESTRICT yp, const float* HS_RESTRICT cbp,
                       const float* HS_RESTRICT crp, float* HS_RESTRICT dst,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float y = yp[i];
    const float cb = cbp[i] - 128.0f;
    const float cr = crp[i] - 128.0f;
    dst[3 * i] = std::clamp((y + 1.402f * cr) / 255.0f, 0.0f, 1.0f);
    dst[3 * i + 1] =
        std::clamp((y - 0.344136f * cb - 0.714136f * cr) / 255.0f, 0.0f, 1.0f);
    dst[3 * i + 2] = std::clamp((y + 1.772f * cb) / 255.0f, 0.0f, 1.0f);
  }
}

/// One channel plane: groups of eight blocks through the SoA
/// DCT/quant/IDCT (leftover and clipped blocks through the seed per-block
/// routines), in place. Cloned so the lane loops widen to one AVX2
/// register each.
HS_TILED_CLONES
void jpeg_channel_fast(float* plane, std::size_t h, std::size_t w,
                       const std::array<int, 64>& q) {
  const auto& cb = dct_basis().c;
  float qf[64];
  for (int i = 0; i < 64; ++i) {
    qf[i] = static_cast<float>(q[static_cast<std::size_t>(i)]);
  }

  alignas(32) float soa[64 * kJpegLanes];
  for (std::size_t by = 0; by < h; by += 8) {
    std::size_t bx = 0;
    if (by + 8 <= h) {
      for (; bx + 8 * kJpegLanes <= w; bx += 8 * kJpegLanes) {
        for (int y = 0; y < 8; ++y) {
          const float* row = plane + (by + static_cast<std::size_t>(y)) * w + bx;
          for (int x = 0; x < 8; ++x) {
            float* d = soa + (y * 8 + x) * kJpegLanes;
            for (int b = 0; b < kJpegLanes; ++b) d[b] = row[b * 8 + x] - 128.0f;
          }
        }
        dct8x8_soa(soa, cb.data());
        for (int i = 0; i < 64; ++i) {
          const float qv = qf[i];
          float* v = soa + i * kJpegLanes;
          for (int b = 0; b < kJpegLanes; ++b) {
            v[b] = round_away(v[b] / qv) * qv;
          }
        }
        idct8x8_soa(soa, cb.data());
        for (int y = 0; y < 8; ++y) {
          float* row = plane + (by + static_cast<std::size_t>(y)) * w + bx;
          for (int x = 0; x < 8; ++x) {
            const float* s = soa + (y * 8 + x) * kJpegLanes;
            for (int b = 0; b < kJpegLanes; ++b) row[b * 8 + x] = s[b] + 128.0f;
          }
        }
      }
    }
    // Leftover / clipped blocks: the seed per-block path on the plane.
    for (; bx < w; bx += 8) {
      std::array<float, 64> block{};
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          const std::size_t yy = std::min(by + static_cast<std::size_t>(y), h - 1);
          const std::size_t xx = std::min(bx + static_cast<std::size_t>(x), w - 1);
          block[static_cast<std::size_t>(y * 8 + x)] = plane[yy * w + xx] - 128.0f;
        }
      }
      dct8x8(block);
      for (int i = 0; i < 64; ++i) {
        block[static_cast<std::size_t>(i)] =
            std::round(block[static_cast<std::size_t>(i)] / qf[i]) * qf[i];
      }
      idct8x8(block);
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          const std::size_t yy = by + static_cast<std::size_t>(y);
          const std::size_t xx = bx + static_cast<std::size_t>(x);
          if (yy < h && xx < w) {
            plane[yy * w + xx] = block[static_cast<std::size_t>(y * 8 + x)] + 128.0f;
          }
        }
      }
    }
  }
}

Image jpeg_roundtrip_fast(const Image& img, int quality) {
  const std::size_t h = img.height(), w = img.width();
  float* ycc = img::scratch(img::kSlotJpegA, h * w * 3);  // three planes
  rgb_to_ycc_planar(img.data(), ycc, ycc + h * w, ycc + 2 * h * w, h * w);
  for (std::size_t c = 0; c < 3; ++c) {
    const auto& base = c == 0 ? kLumaQuant : kChromaQuant;
    std::array<int, 64> q{};
    for (int i = 0; i < 64; ++i) {
      q[static_cast<std::size_t>(i)] =
          jpeg_scale_quant(base[static_cast<std::size_t>(i)], quality);
    }
    jpeg_channel_fast(ycc + c * h * w, h, w, q);
  }
  Image out(h, w);
  ycc_to_rgb_planar(ycc, ycc + h * w, ycc + 2 * h * w, out.data(), h * w);
  return out;
}

}  // namespace

int jpeg_scale_quant(int base, int quality) {
  quality = std::clamp(quality, 1, 99);
  const int scale =
      quality < 50 ? 5000 / quality : 200 - 2 * quality;  // libjpeg rule
  return std::clamp((base * scale + 50) / 100, 1, 255);
}

Image jpeg_roundtrip(const Image& img, int quality) {
  HS_CHECK(!img.empty(), "jpeg_roundtrip: empty image");
  if (quality <= 0 || quality >= 100) return img;
  if (img::fast_path()) return jpeg_roundtrip_fast(img, quality);

  const std::size_t h = img.height(), w = img.width();
  // RGB -> YCbCr (JFIF), values scaled to [0, 255] around the JPEG ranges.
  std::vector<float> ycc(h * w * 3);
  const float* src = img.data();
  for (std::size_t i = 0; i < h * w; ++i) {
    const float r = src[3 * i] * 255.0f;
    const float g = src[3 * i + 1] * 255.0f;
    const float b = src[3 * i + 2] * 255.0f;
    ycc[3 * i] = 0.299f * r + 0.587f * g + 0.114f * b;
    ycc[3 * i + 1] = -0.168736f * r - 0.331264f * g + 0.5f * b + 128.0f;
    ycc[3 * i + 2] = 0.5f * r - 0.418688f * g - 0.081312f * b + 128.0f;
  }

  // Per channel: 8x8 block DCT, quantize, dequantize, inverse DCT. Edge
  // blocks are padded by clamping.
  for (std::size_t c = 0; c < 3; ++c) {
    const auto& base = c == 0 ? kLumaQuant : kChromaQuant;
    std::array<int, 64> q{};
    for (int i = 0; i < 64; ++i) {
      q[static_cast<std::size_t>(i)] =
          jpeg_scale_quant(base[static_cast<std::size_t>(i)], quality);
    }
    for (std::size_t by = 0; by < h; by += 8) {
      for (std::size_t bx = 0; bx < w; bx += 8) {
        std::array<float, 64> block{};
        for (int y = 0; y < 8; ++y) {
          for (int x = 0; x < 8; ++x) {
            const std::size_t yy = std::min(by + static_cast<std::size_t>(y),
                                            h - 1);
            const std::size_t xx = std::min(bx + static_cast<std::size_t>(x),
                                            w - 1);
            block[static_cast<std::size_t>(y * 8 + x)] =
                ycc[(yy * w + xx) * 3 + c] - 128.0f;
          }
        }
        dct8x8(block);
        for (int i = 0; i < 64; ++i) {
          const float qv = static_cast<float>(q[static_cast<std::size_t>(i)]);
          block[static_cast<std::size_t>(i)] =
              std::round(block[static_cast<std::size_t>(i)] / qv) * qv;
        }
        idct8x8(block);
        for (int y = 0; y < 8; ++y) {
          for (int x = 0; x < 8; ++x) {
            const std::size_t yy = by + static_cast<std::size_t>(y);
            const std::size_t xx = bx + static_cast<std::size_t>(x);
            if (yy < h && xx < w) {
              ycc[(yy * w + xx) * 3 + c] =
                  block[static_cast<std::size_t>(y * 8 + x)] + 128.0f;
            }
          }
        }
      }
    }
  }

  // YCbCr -> RGB.
  Image out(h, w);
  float* dst = out.data();
  for (std::size_t i = 0; i < h * w; ++i) {
    const float y = ycc[3 * i];
    const float cb = ycc[3 * i + 1] - 128.0f;
    const float cr = ycc[3 * i + 2] - 128.0f;
    dst[3 * i] = std::clamp((y + 1.402f * cr) / 255.0f, 0.0f, 1.0f);
    dst[3 * i + 1] =
        std::clamp((y - 0.344136f * cb - 0.714136f * cr) / 255.0f, 0.0f, 1.0f);
    dst[3 * i + 2] = std::clamp((y + 1.772f * cb) / 255.0f, 0.0f, 1.0f);
  }
  return out;
}

}  // namespace hetero
