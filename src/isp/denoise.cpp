#include "isp/denoise.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "image/fastpath.h"
#include "kernels/isa.h"

namespace hetero {
namespace {

RawImage denoise_fbdd(const RawImage& raw) {
  // Median over same-colour neighbours in a 5x5 window, blended 50/50 with
  // the original sample: removes impulse noise while keeping detail (a
  // laptop-scale stand-in for FBDD's full banding/impulse pipeline).
  const int h = static_cast<int>(raw.height());
  const int w = static_cast<int>(raw.width());
  RawImage out(raw.height(), raw.width(), raw.pattern());
  std::vector<float> samples;
  samples.reserve(9);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int own = raw.channel_at(static_cast<std::size_t>(y),
                                     static_cast<std::size_t>(x));
      samples.clear();
      for (int dy = -2; dy <= 2; ++dy) {
        for (int dx = -2; dx <= 2; ++dx) {
          const int yy = std::clamp(y + dy, 0, h - 1);
          const int xx = std::clamp(x + dx, 0, w - 1);
          if (raw.channel_at(static_cast<std::size_t>(yy),
                             static_cast<std::size_t>(xx)) == own) {
            samples.push_back(raw.at(static_cast<std::size_t>(yy),
                                     static_cast<std::size_t>(xx)));
          }
        }
      }
      std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                       samples.end());
      const float med = samples[samples.size() / 2];
      const float orig =
          raw.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x));
      out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x)) =
          0.5f * orig + 0.5f * med;
    }
  }
  return out;
}

/// One-level 2-D Haar soft-threshold denoise of a single plane (in place).
void haar_denoise_plane(std::vector<float>& plane, std::size_t h,
                        std::size_t w) {
  if (h < 2 || w < 2) return;
  const std::size_t hh = h / 2, hw = w / 2;
  std::vector<float> ll(hh * hw), lh(hh * hw), hl(hh * hw), hhb(hh * hw);
  for (std::size_t y = 0; y < hh; ++y) {
    for (std::size_t x = 0; x < hw; ++x) {
      const float a = plane[(2 * y) * w + 2 * x];
      const float b = plane[(2 * y) * w + 2 * x + 1];
      const float c = plane[(2 * y + 1) * w + 2 * x];
      const float d = plane[(2 * y + 1) * w + 2 * x + 1];
      ll[y * hw + x] = (a + b + c + d) / 4.0f;
      lh[y * hw + x] = (a - b + c - d) / 4.0f;
      hl[y * hw + x] = (a + b - c - d) / 4.0f;
      hhb[y * hw + x] = (a - b - c + d) / 4.0f;
    }
  }
  // BayesShrink-style noise estimate from the diagonal detail band.
  std::vector<float> abs_hh(hhb.size());
  for (std::size_t i = 0; i < hhb.size(); ++i) abs_hh[i] = std::abs(hhb[i]);
  std::nth_element(abs_hh.begin(), abs_hh.begin() + abs_hh.size() / 2,
                   abs_hh.end());
  const float sigma = abs_hh[abs_hh.size() / 2] / 0.6745f;
  const float t = 1.5f * sigma;
  auto soft = [t](float v) {
    if (v > t) return v - t;
    if (v < -t) return v + t;
    return 0.0f;
  };
  for (auto* band : {&lh, &hl, &hhb}) {
    for (float& v : *band) v = soft(v);
  }
  // Inverse Haar.
  for (std::size_t y = 0; y < hh; ++y) {
    for (std::size_t x = 0; x < hw; ++x) {
      const float s = ll[y * hw + x];
      const float e1 = lh[y * hw + x];
      const float e2 = hl[y * hw + x];
      const float e3 = hhb[y * hw + x];
      plane[(2 * y) * w + 2 * x] = s + e1 + e2 + e3;
      plane[(2 * y) * w + 2 * x + 1] = s - e1 + e2 - e3;
      plane[(2 * y + 1) * w + 2 * x] = s + e1 - e2 - e3;
      plane[(2 * y + 1) * w + 2 * x + 1] = s - e1 - e2 + e3;
    }
  }
}

RawImage denoise_wavelet(const RawImage& raw) {
  // Treat the mosaic as four half-resolution colour planes (one per CFA
  // site), denoise each, and reassemble — wavelets never mix colours.
  const std::size_t h = raw.height(), w = raw.width();
  const std::size_t ph = h / 2, pw = w / 2;
  RawImage out(h, w, raw.pattern());
  for (std::size_t sy = 0; sy < 2; ++sy) {
    for (std::size_t sx = 0; sx < 2; ++sx) {
      std::vector<float> plane(ph * pw);
      for (std::size_t y = 0; y < ph; ++y) {
        for (std::size_t x = 0; x < pw; ++x) {
          plane[y * pw + x] = raw.at(2 * y + sy, 2 * x + sx);
        }
      }
      haar_denoise_plane(plane, ph, pw);
      for (std::size_t y = 0; y < ph; ++y) {
        for (std::size_t x = 0; x < pw; ++x) {
          out.at(2 * y + sy, 2 * x + sx) =
              std::clamp(plane[y * pw + x], 0.0f, 1.0f);
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------- fast path
//
// Fast-path rewrites of the loops above; byte-identical results (the
// blend/threshold arithmetic is untouched and a median is a k-th order
// statistic, so any exact selection yields the seed value). See
// tests/test_isp_parity.cpp.

/// Exact median of 9 via the classic minimal exchange network (Paeth /
/// Devillard). Produces the 5th-smallest element — the same value
/// nth_element(begin, begin+4, end) selects.
HS_ALWAYS_INLINE float median9(float* HS_RESTRICT p) {
  auto sort2 = [](float& a, float& b) {
    const float lo = std::min(a, b), hi = std::max(a, b);
    a = lo;
    b = hi;
  };
  sort2(p[1], p[2]); sort2(p[4], p[5]); sort2(p[7], p[8]);
  sort2(p[0], p[1]); sort2(p[3], p[4]); sort2(p[6], p[7]);
  sort2(p[1], p[2]); sort2(p[4], p[5]); sort2(p[7], p[8]);
  sort2(p[0], p[3]); sort2(p[5], p[8]); sort2(p[4], p[7]);
  sort2(p[3], p[6]); sort2(p[1], p[4]); sort2(p[2], p[5]);
  sort2(p[4], p[7]); sort2(p[4], p[2]); sort2(p[6], p[4]);
  sort2(p[4], p[2]);
  return p[4];
}

/// Comparator schedule of Batcher's odd-even mergesort for 16 inputs (63
/// exchanges), generated once at first use — correct by construction
/// rather than a memorized network. Sorting 13 samples padded with three
/// +inf sentinels leaves the median at element 6.
struct Batcher16 {
  int n = 0;
  std::uint8_t a[72], b[72];
  Batcher16() {
    constexpr int kN = 16;
    for (int p = 1; p < kN; p <<= 1) {
      for (int k = p; k >= 1; k >>= 1) {
        for (int j = k % p; j + k < kN; j += 2 * k) {
          for (int i = 0; i < k && i + j + k < kN; ++i) {
            if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
              a[n] = static_cast<std::uint8_t>(i + j);
              b[n] = static_cast<std::uint8_t>(i + j + k);
              ++n;
            }
          }
        }
      }
    }
  }
};

const Batcher16& batcher16() {
  static const Batcher16 net;
  return net;
}

/// Exact median of 13 (the Bayer G-phase same-channel count in a 5x5
/// window): branchless sorting network over the padded 16-vector. Any
/// exact selection returns the value nth_element(s, s+6, s+13) would.
HS_ALWAYS_INLINE float median13(const float* HS_RESTRICT src,
                                const Batcher16& net) {
  float s[16];
  for (int i = 0; i < 13; ++i) s[i] = src[i];
  s[13] = s[14] = s[15] = std::numeric_limits<float>::infinity();
  for (int i = 0; i < net.n; ++i) {
    float& x = s[net.a[i]];
    float& y = s[net.b[i]];
    const float lo = std::min(x, y), hi = std::max(x, y);
    x = lo;
    y = hi;
  }
  return s[6];
}

/// Same-channel offsets of one CFA phase inside the 5x5 window, in the
/// scalar dy/dx scan order. Interior-only (no clamping).
struct FbddTab {
  int n = 0;
  int off[25];
};

RawImage denoise_fbdd_fast(const RawImage& raw) {
  const int h = static_cast<int>(raw.height());
  const int w = static_cast<int>(raw.width());
  RawImage out(raw.height(), raw.width(), raw.pattern());

  int pc[2][2];
  for (int py = 0; py < 2; ++py) {
    for (int px = 0; px < 2; ++px) {
      pc[py][px] = raw.channel_at(static_cast<std::size_t>(std::min(py, h - 1)),
                                  static_cast<std::size_t>(std::min(px, w - 1)));
    }
  }
  FbddTab tab[2][2];
  for (int py = 0; py < 2; ++py) {
    for (int px = 0; px < 2; ++px) {
      FbddTab& t = tab[py][px];
      for (int dy = -2; dy <= 2; ++dy) {
        for (int dx = -2; dx <= 2; ++dx) {
          if (pc[(py + dy) & 1][(px + dx) & 1] == pc[py][px]) {
            t.off[t.n++] = dy * w + dx;
          }
        }
      }
    }
  }

  const float* HS_RESTRICT rp = raw.data();
  float* HS_RESTRICT op = out.data();
  const Batcher16& net = batcher16();
  for (int y = 2; y < h - 2; ++y) {
    const int py = y & 1;
    const float* row = rp + static_cast<std::ptrdiff_t>(y) * w;
    float* orow = op + static_cast<std::ptrdiff_t>(y) * w;
    for (int x = 2; x < w - 2; ++x) {
      const FbddTab& t = tab[py][x & 1];
      float s[25];
      for (int k = 0; k < t.n; ++k) s[k] = row[x + t.off[k]];
      float med;
      if (t.n == 9) {
        med = median9(s);
      } else if (t.n == 13) {
        med = median13(s, net);
      } else {
        std::nth_element(s, s + t.n / 2, s + t.n);
        med = s[t.n / 2];
      }
      orow[x] = 0.5f * row[x] + 0.5f * med;
    }
  }

  // Clamped border ring (two pixels): the seed per-pixel scan verbatim.
  auto border_pixel = [&](int y, int x) {
    const int own = pc[y & 1][x & 1];
    float s[25];
    int n = 0;
    for (int dy = -2; dy <= 2; ++dy) {
      for (int dx = -2; dx <= 2; ++dx) {
        const int yy = std::clamp(y + dy, 0, h - 1);
        const int xx = std::clamp(x + dx, 0, w - 1);
        if (pc[yy & 1][xx & 1] == own) {
          s[n++] = rp[static_cast<std::ptrdiff_t>(yy) * w + xx];
        }
      }
    }
    std::nth_element(s, s + n / 2, s + n);
    const float orig = rp[static_cast<std::ptrdiff_t>(y) * w + x];
    op[static_cast<std::ptrdiff_t>(y) * w + x] = 0.5f * orig + 0.5f * s[n / 2];
  };
  const int ylo = std::min(2, h), yhi = std::max(h - 2, ylo);
  for (int y = 0; y < ylo; ++y) {
    for (int x = 0; x < w; ++x) border_pixel(y, x);
  }
  for (int y = yhi; y < h; ++y) {
    for (int x = 0; x < w; ++x) border_pixel(y, x);
  }
  for (int y = ylo; y < yhi; ++y) {
    for (int x = 0; x < std::min(2, w); ++x) border_pixel(y, x);
    for (int x = std::max(w - 2, std::min(2, w)); x < w; ++x) border_pixel(y, x);
  }
  return out;
}

HS_TILED_CLONES
void haar_forward(const float* HS_RESTRICT plane, float* HS_RESTRICT ll,
                  float* HS_RESTRICT lh, float* HS_RESTRICT hl,
                  float* HS_RESTRICT hhb, std::size_t hh, std::size_t hw,
                  std::size_t w) {
  for (std::size_t y = 0; y < hh; ++y) {
    const float* r0 = plane + (2 * y) * w;
    const float* r1 = r0 + w;
    for (std::size_t x = 0; x < hw; ++x) {
      const float a = r0[2 * x];
      const float b = r0[2 * x + 1];
      const float c = r1[2 * x];
      const float d = r1[2 * x + 1];
      ll[y * hw + x] = (a + b + c + d) / 4.0f;
      lh[y * hw + x] = (a - b + c - d) / 4.0f;
      hl[y * hw + x] = (a + b - c - d) / 4.0f;
      hhb[y * hw + x] = (a - b - c + d) / 4.0f;
    }
  }
}

HS_TILED_CLONES
void haar_inverse(float* HS_RESTRICT plane, const float* HS_RESTRICT ll,
                  const float* HS_RESTRICT lh, const float* HS_RESTRICT hl,
                  const float* HS_RESTRICT hhb, std::size_t hh, std::size_t hw,
                  std::size_t w) {
  for (std::size_t y = 0; y < hh; ++y) {
    float* r0 = plane + (2 * y) * w;
    float* r1 = r0 + w;
    for (std::size_t x = 0; x < hw; ++x) {
      const float s = ll[y * hw + x];
      const float e1 = lh[y * hw + x];
      const float e2 = hl[y * hw + x];
      const float e3 = hhb[y * hw + x];
      r0[2 * x] = s + e1 + e2 + e3;
      r0[2 * x + 1] = s - e1 + e2 - e3;
      r1[2 * x] = s + e1 - e2 - e3;
      r1[2 * x + 1] = s - e1 - e2 + e3;
    }
  }
}

HS_TILED_CLONES
void soft_threshold(float* HS_RESTRICT band, std::size_t n, float t) {
  for (std::size_t i = 0; i < n; ++i) {
    const float v = band[i];
    band[i] = v > t ? v - t : (v < -t ? v + t : 0.0f);
  }
}

/// haar_denoise_plane over caller-supplied band scratch (no allocation).
void haar_denoise_plane_fast(float* plane, std::size_t h, std::size_t w,
                             float* bands) {
  if (h < 2 || w < 2) return;
  const std::size_t hh = h / 2, hw = w / 2, n = hh * hw;
  float* ll = bands;
  float* lh = ll + n;
  float* hl = lh + n;
  float* hhb = hl + n;
  float* abs_hh = hhb + n;
  haar_forward(plane, ll, lh, hl, hhb, hh, hw, w);
  for (std::size_t i = 0; i < n; ++i) abs_hh[i] = std::abs(hhb[i]);
  std::nth_element(abs_hh, abs_hh + n / 2, abs_hh + n);
  const float sigma = abs_hh[n / 2] / 0.6745f;
  const float t = 1.5f * sigma;
  soft_threshold(lh, n, t);
  soft_threshold(hl, n, t);
  soft_threshold(hhb, n, t);
  haar_inverse(plane, ll, lh, hl, hhb, hh, hw, w);
}

RawImage denoise_wavelet_fast(const RawImage& raw) {
  const std::size_t h = raw.height(), w = raw.width();
  const std::size_t ph = h / 2, pw = w / 2;
  RawImage out(h, w, raw.pattern());
  const std::size_t plane_n = ph * pw;
  const std::size_t band_n = (ph / 2) * (pw / 2);
  float* plane = img::scratch(img::kSlotDenoise, plane_n + 5 * band_n);
  float* bands = plane + plane_n;
  const float* rp = raw.data();
  float* op = out.data();
  for (std::size_t sy = 0; sy < 2; ++sy) {
    for (std::size_t sx = 0; sx < 2; ++sx) {
      for (std::size_t y = 0; y < ph; ++y) {
        const float* src = rp + (2 * y + sy) * w + sx;
        float* dst = plane + y * pw;
        for (std::size_t x = 0; x < pw; ++x) dst[x] = src[2 * x];
      }
      haar_denoise_plane_fast(plane, ph, pw, bands);
      for (std::size_t y = 0; y < ph; ++y) {
        const float* src = plane + y * pw;
        float* dst = op + (2 * y + sy) * w + sx;
        for (std::size_t x = 0; x < pw; ++x) {
          dst[2 * x] = std::clamp(src[x], 0.0f, 1.0f);
        }
      }
    }
  }
  return out;
}

}  // namespace

const char* denoise_name(DenoiseAlgo algo) {
  switch (algo) {
    case DenoiseAlgo::kNone: return "none";
    case DenoiseAlgo::kFBDD: return "fbdd";
    case DenoiseAlgo::kWavelet: return "wavelet-bayesshrink";
  }
  return "?";
}

RawImage denoise(const RawImage& raw, DenoiseAlgo algo) {
  HS_CHECK(!raw.empty(), "denoise: empty RAW input");
  if (img::fast_path()) {
    switch (algo) {
      case DenoiseAlgo::kNone: return raw;
      case DenoiseAlgo::kFBDD: return denoise_fbdd_fast(raw);
      case DenoiseAlgo::kWavelet: return denoise_wavelet_fast(raw);
    }
    return raw;
  }
  switch (algo) {
    case DenoiseAlgo::kNone: return raw;
    case DenoiseAlgo::kFBDD: return denoise_fbdd(raw);
    case DenoiseAlgo::kWavelet: return denoise_wavelet(raw);
  }
  return raw;
}

}  // namespace hetero
