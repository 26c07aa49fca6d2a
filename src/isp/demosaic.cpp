#include "isp/demosaic.h"

#include <algorithm>
#include <cmath>

#include "image/fastpath.h"
#include "kernels/isa.h"

namespace hetero {
namespace {

/// Clamped mosaic read.
struct MosaicView {
  const RawImage& raw;
  int h, w;

  float operator()(int y, int x) const {
    y = std::clamp(y, 0, h - 1);
    x = std::clamp(x, 0, w - 1);
    return raw.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x));
  }
  int ch(int y, int x) const {
    y = std::clamp(y, 0, h - 1);
    x = std::clamp(x, 0, w - 1);
    return raw.channel_at(static_cast<std::size_t>(y),
                          static_cast<std::size_t>(x));
  }
};

/// Fills the green plane of `out` at non-green sites by plain 4-neighbour
/// averaging; copies known samples everywhere.
void copy_known_samples(const MosaicView& m, Image& out) {
  for (int y = 0; y < m.h; ++y) {
    for (int x = 0; x < m.w; ++x) {
      out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x),
             static_cast<std::size_t>(m.ch(y, x))) = m(y, x);
    }
  }
}

Image demosaic_bilinear(const MosaicView& m) {
  Image out(static_cast<std::size_t>(m.h), static_cast<std::size_t>(m.w));
  copy_known_samples(m, out);
  for (int y = 0; y < m.h; ++y) {
    for (int x = 0; x < m.w; ++x) {
      const int own = m.ch(y, x);
      for (int c = 0; c < 3; ++c) {
        if (c == own) continue;
        // Average all samples of channel c in the 3x3 neighbourhood.
        float sum = 0.0f;
        int count = 0;
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            if (dy == 0 && dx == 0) continue;
            if (m.ch(y + dy, x + dx) == c) {
              sum += m(y + dy, x + dx);
              ++count;
            }
          }
        }
        out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x),
               static_cast<std::size_t>(c)) = count ? sum / count : 0.0f;
      }
    }
  }
  return out;
}

/// Interpolates green at every non-green site, either gradient-directed
/// (PPG) or fixed direction (AHD candidates), with Laplacian correction from
/// the co-located channel.
enum class GreenDir { kAdaptive, kHorizontal, kVertical };

void interpolate_green(const MosaicView& m, Image& out, GreenDir dir) {
  for (int y = 0; y < m.h; ++y) {
    for (int x = 0; x < m.w; ++x) {
      const int own = m.ch(y, x);
      if (own == 1) {
        out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x), 1) =
            m(y, x);
        continue;
      }
      // Gradient-corrected estimates along each axis.
      const float gh = (m(y, x - 1) + m(y, x + 1)) / 2.0f +
                       (2.0f * m(y, x) - m(y, x - 2) - m(y, x + 2)) / 4.0f;
      const float gv = (m(y - 1, x) + m(y + 1, x)) / 2.0f +
                       (2.0f * m(y, x) - m(y - 2, x) - m(y + 2, x)) / 4.0f;
      float g;
      switch (dir) {
        case GreenDir::kHorizontal: g = gh; break;
        case GreenDir::kVertical: g = gv; break;
        case GreenDir::kAdaptive:
        default: {
          const float grad_h = std::abs(m(y, x - 1) - m(y, x + 1)) +
                               std::abs(2.0f * m(y, x) - m(y, x - 2) -
                                        m(y, x + 2));
          const float grad_v = std::abs(m(y - 1, x) - m(y + 1, x)) +
                               std::abs(2.0f * m(y, x) - m(y - 2, x) -
                                        m(y + 2, x));
          if (grad_h < grad_v) {
            g = gh;
          } else if (grad_v < grad_h) {
            g = gv;
          } else {
            g = (gh + gv) / 2.0f;
          }
        }
      }
      out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x), 1) =
          std::clamp(g, 0.0f, 1.0f);
    }
  }
}

/// Recovers R and B everywhere from colour differences against the
/// interpolated green plane (standard second pass shared by PPG and AHD).
void interpolate_rb(const MosaicView& m, Image& out) {
  auto green = [&](int y, int x) {
    y = std::clamp(y, 0, m.h - 1);
    x = std::clamp(x, 0, m.w - 1);
    return out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x), 1);
  };
  for (int y = 0; y < m.h; ++y) {
    for (int x = 0; x < m.w; ++x) {
      const int own = m.ch(y, x);
      for (int c = 0; c <= 2; c += 2) {  // R and B planes
        if (c == own) {
          out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x),
                 static_cast<std::size_t>(c)) = m(y, x);
          continue;
        }
        // Average colour difference (C - G) over the nearest C samples.
        float diff = 0.0f;
        int count = 0;
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            if (dy == 0 && dx == 0) continue;
            if (m.ch(y + dy, x + dx) == c) {
              diff += m(y + dy, x + dx) - green(y + dy, x + dx);
              ++count;
            }
          }
        }
        const float v = green(y, x) + (count ? diff / count : 0.0f);
        out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x),
               static_cast<std::size_t>(c)) = std::clamp(v, 0.0f, 1.0f);
      }
    }
  }
}

Image demosaic_ppg(const MosaicView& m) {
  Image out(static_cast<std::size_t>(m.h), static_cast<std::size_t>(m.w));
  interpolate_green(m, out, GreenDir::kAdaptive);
  interpolate_rb(m, out);
  return out;
}

Image demosaic_ahd(const MosaicView& m) {
  // Two candidate green planes.
  Image out_h(static_cast<std::size_t>(m.h), static_cast<std::size_t>(m.w));
  Image out_v(static_cast<std::size_t>(m.h), static_cast<std::size_t>(m.w));
  interpolate_green(m, out_h, GreenDir::kHorizontal);
  interpolate_green(m, out_v, GreenDir::kVertical);

  // Per-pixel homogeneity: pick the direction whose local green plane is
  // smoother (lower 3x3 total variation), a laptop-scale proxy for AHD's
  // CIELab homogeneity maps.
  Image out(static_cast<std::size_t>(m.h), static_cast<std::size_t>(m.w));
  auto tv = [&](const Image& g, int y, int x) {
    float acc = 0.0f;
    const float centre = g.at(static_cast<std::size_t>(std::clamp(y, 0, m.h - 1)),
                              static_cast<std::size_t>(std::clamp(x, 0, m.w - 1)),
                              1);
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const int yy = std::clamp(y + dy, 0, m.h - 1);
        const int xx = std::clamp(x + dx, 0, m.w - 1);
        acc += std::abs(g.at(static_cast<std::size_t>(yy),
                             static_cast<std::size_t>(xx), 1) -
                        centre);
      }
    }
    return acc;
  };
  for (int y = 0; y < m.h; ++y) {
    for (int x = 0; x < m.w; ++x) {
      const Image& pick = tv(out_h, y, x) <= tv(out_v, y, x) ? out_h : out_v;
      out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x), 1) =
          pick.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x), 1);
    }
  }
  interpolate_rb(m, out);
  return out;
}

Image demosaic_binning(const MosaicView& m) {
  // 2x2 CFA tile -> one RGB superpixel at half resolution.
  const int oh = m.h / 2, ow = m.w / 2;
  Image half(static_cast<std::size_t>(oh), static_cast<std::size_t>(ow));
  for (int ty = 0; ty < oh; ++ty) {
    for (int tx = 0; tx < ow; ++tx) {
      float rgb[3] = {0, 0, 0};
      int counts[3] = {0, 0, 0};
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const int c = m.ch(2 * ty + dy, 2 * tx + dx);
          rgb[c] += m(2 * ty + dy, 2 * tx + dx);
          ++counts[c];
        }
      }
      for (int c = 0; c < 3; ++c) {
        if (counts[c]) rgb[c] /= static_cast<float>(counts[c]);
      }
      half.set_pixel(static_cast<std::size_t>(ty), static_cast<std::size_t>(tx),
                     rgb[0], rgb[1], rgb[2]);
    }
  }
  // Upscale back so downstream stages see the native resolution; the lost
  // high-frequency detail is the binning signature.
  return resize_bilinear(half, static_cast<std::size_t>(m.h),
                         static_cast<std::size_t>(m.w));
}

// ---------------------------------------------------------------- fast path
//
// Row-major rewrites of the seed loops above (the fast path). Interior pixels
// — no clamped neighbour — run over raw row pointers through per-CFA-phase
// offset tables built in the same dy/dx iteration order as the scalar scans,
// so every floating-point accumulation happens in the seed order and the
// output is byte-identical (asserted by tests/test_isp_parity.cpp). Border
// rings reuse the clamped MosaicView math verbatim.

/// Same-channel neighbour offsets around one CFA phase, 3x3 window, in the
/// scalar loop's dy/dx order. `off` indexes the mosaic, `off3` the HWC image
/// (the same displacement times three channels).
struct OffsetTab {
  int n = 0;
  int off[8];
  int off3[8];
};

OffsetTab make_tab(const int pc[2][2], int py, int px, int c, int w) {
  OffsetTab t;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dy == 0 && dx == 0) continue;
      if (pc[(py + dy) & 1][(px + dx) & 1] == c) {
        t.off[t.n] = dy * w + dx;
        t.off3[t.n] = (dy * w + dx) * 3;
        ++t.n;
      }
    }
  }
  return t;
}

/// CFA phase channels pc[y&1][x&1] plus the per-phase, per-channel tables.
struct MosaicTabs {
  int pc[2][2];
  OffsetTab tab[2][2][3];
};

MosaicTabs make_tabs(const MosaicView& m) {
  MosaicTabs t;
  for (int py = 0; py < 2; ++py) {
    for (int px = 0; px < 2; ++px) {
      t.pc[py][px] = m.ch(py, px);
    }
  }
  for (int py = 0; py < 2; ++py) {
    for (int px = 0; px < 2; ++px) {
      for (int c = 0; c < 3; ++c) {
        t.tab[py][px][c] = make_tab(t.pc, py, px, c, m.w);
      }
    }
  }
  return t;
}

/// One bilinear pixel through the clamped view (border fallback); the body
/// is the seed per-pixel scan.
void bilinear_pixel(const MosaicView& m, Image& out, int y, int x) {
  const int own = m.ch(y, x);
  out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x),
         static_cast<std::size_t>(own)) = m(y, x);
  for (int c = 0; c < 3; ++c) {
    if (c == own) continue;
    float sum = 0.0f;
    int count = 0;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dy == 0 && dx == 0) continue;
        if (m.ch(y + dy, x + dx) == c) {
          sum += m(y + dy, x + dx);
          ++count;
        }
      }
    }
    out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x),
           static_cast<std::size_t>(c)) = count ? sum / count : 0.0f;
  }
}

HS_TILED_CLONES
void bilinear_interior(const float* HS_RESTRICT raw, float* HS_RESTRICT out,
                       int h, int w, const MosaicTabs& t) {
  for (int y = 1; y < h - 1; ++y) {
    const int py = y & 1;
    const float* rp = raw + static_cast<std::ptrdiff_t>(y) * w;
    float* op = out + static_cast<std::ptrdiff_t>(y) * w * 3;
    for (int x = 1; x < w - 1; ++x) {
      const int own = t.pc[py][x & 1];
      float* o = op + x * 3;
      o[own] = rp[x];
      for (int c = 0; c < 3; ++c) {
        if (c == own) continue;
        const OffsetTab& tab = t.tab[py][x & 1][c];
        float sum = 0.0f;
        for (int k = 0; k < tab.n; ++k) sum += rp[x + tab.off[k]];
        o[c] = tab.n ? sum / tab.n : 0.0f;
      }
    }
  }
}

Image demosaic_bilinear_fast(const MosaicView& m) {
  Image out(static_cast<std::size_t>(m.h), static_cast<std::size_t>(m.w));
  const MosaicTabs t = make_tabs(m);
  bilinear_interior(m.raw.data(), out.data(), m.h, m.w, t);
  for (int x = 0; x < m.w; ++x) {
    bilinear_pixel(m, out, 0, x);
    if (m.h > 1) bilinear_pixel(m, out, m.h - 1, x);
  }
  for (int y = 1; y < m.h - 1; ++y) {
    bilinear_pixel(m, out, y, 0);
    if (m.w > 1) bilinear_pixel(m, out, y, m.w - 1);
  }
  return out;
}

/// One green pixel through the clamped view (border fallback for the fast
/// PPG/AHD paths); writes `stride`-spaced output (3 = HWC green channel,
/// 1 = bare candidate plane).
void green_pixel(const MosaicView& m, float* outg, int stride, int y, int x,
                 GreenDir dir) {
  float* o = outg + (static_cast<std::ptrdiff_t>(y) * m.w + x) * stride;
  if (m.ch(y, x) == 1) {
    *o = m(y, x);
    return;
  }
  const float gh = (m(y, x - 1) + m(y, x + 1)) / 2.0f +
                   (2.0f * m(y, x) - m(y, x - 2) - m(y, x + 2)) / 4.0f;
  const float gv = (m(y - 1, x) + m(y + 1, x)) / 2.0f +
                   (2.0f * m(y, x) - m(y - 2, x) - m(y + 2, x)) / 4.0f;
  float g;
  switch (dir) {
    case GreenDir::kHorizontal: g = gh; break;
    case GreenDir::kVertical: g = gv; break;
    case GreenDir::kAdaptive:
    default: {
      const float grad_h =
          std::abs(m(y, x - 1) - m(y, x + 1)) +
          std::abs(2.0f * m(y, x) - m(y, x - 2) - m(y, x + 2));
      const float grad_v =
          std::abs(m(y - 1, x) - m(y + 1, x)) +
          std::abs(2.0f * m(y, x) - m(y - 2, x) - m(y + 2, x));
      if (grad_h < grad_v) {
        g = gh;
      } else if (grad_v < grad_h) {
        g = gv;
      } else {
        g = (gh + gv) / 2.0f;
      }
    }
  }
  *o = std::clamp(g, 0.0f, 1.0f);
}

HS_TILED_CLONES
void green_interior(const float* HS_RESTRICT raw, float* HS_RESTRICT outg,
                    int h, int w, int stride, const MosaicTabs& t,
                    GreenDir dir) {
  for (int y = 2; y < h - 2; ++y) {
    const int py = y & 1;
    const float* rp = raw + static_cast<std::ptrdiff_t>(y) * w;
    float* op = outg + static_cast<std::ptrdiff_t>(y) * w * stride;
    for (int x = 2; x < w - 2; ++x) {
      const float v = rp[x];
      if (t.pc[py][x & 1] == 1) {
        op[x * stride] = v;
        continue;
      }
      const float gh = (rp[x - 1] + rp[x + 1]) / 2.0f +
                       (2.0f * v - rp[x - 2] - rp[x + 2]) / 4.0f;
      const float gv = (rp[x - w] + rp[x + w]) / 2.0f +
                       (2.0f * v - rp[x - 2 * w] - rp[x + 2 * w]) / 4.0f;
      float g;
      switch (dir) {
        case GreenDir::kHorizontal: g = gh; break;
        case GreenDir::kVertical: g = gv; break;
        case GreenDir::kAdaptive:
        default: {
          const float grad_h = std::abs(rp[x - 1] - rp[x + 1]) +
                               std::abs(2.0f * v - rp[x - 2] - rp[x + 2]);
          const float grad_v = std::abs(rp[x - w] - rp[x + w]) +
                               std::abs(2.0f * v - rp[x - 2 * w] -
                                        rp[x + 2 * w]);
          if (grad_h < grad_v) {
            g = gh;
          } else if (grad_v < grad_h) {
            g = gv;
          } else {
            g = (gh + gv) / 2.0f;
          }
        }
      }
      op[x * stride] = std::clamp(g, 0.0f, 1.0f);
    }
  }
}

/// Full green pass: interior kernel plus the two-pixel clamped border ring.
void interpolate_green_fast(const MosaicView& m, const MosaicTabs& t,
                            float* outg, int stride, GreenDir dir) {
  green_interior(m.raw.data(), outg, m.h, m.w, stride, t, dir);
  const int ylo = std::min(2, m.h), yhi = std::max(m.h - 2, ylo);
  for (int y = 0; y < ylo; ++y) {
    for (int x = 0; x < m.w; ++x) green_pixel(m, outg, stride, y, x, dir);
  }
  for (int y = yhi; y < m.h; ++y) {
    for (int x = 0; x < m.w; ++x) green_pixel(m, outg, stride, y, x, dir);
  }
  for (int y = ylo; y < yhi; ++y) {
    for (int x = 0; x < std::min(2, m.w); ++x) {
      green_pixel(m, outg, stride, y, x, dir);
    }
    for (int x = std::max(m.w - 2, std::min(2, m.w)); x < m.w; ++x) {
      green_pixel(m, outg, stride, y, x, dir);
    }
  }
}

/// One R/B pixel through the clamped view (border fallback); seed math.
void rb_pixel(const MosaicView& m, Image& out, int y, int x) {
  auto green = [&](int yy, int xx) {
    yy = std::clamp(yy, 0, m.h - 1);
    xx = std::clamp(xx, 0, m.w - 1);
    return out.at(static_cast<std::size_t>(yy), static_cast<std::size_t>(xx),
                  1);
  };
  const int own = m.ch(y, x);
  for (int c = 0; c <= 2; c += 2) {
    if (c == own) {
      out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x),
             static_cast<std::size_t>(c)) = m(y, x);
      continue;
    }
    float diff = 0.0f;
    int count = 0;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dy == 0 && dx == 0) continue;
        if (m.ch(y + dy, x + dx) == c) {
          diff += m(y + dy, x + dx) - green(y + dy, x + dx);
          ++count;
        }
      }
    }
    const float v = green(y, x) + (count ? diff / count : 0.0f);
    out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x),
           static_cast<std::size_t>(c)) = std::clamp(v, 0.0f, 1.0f);
  }
}

HS_TILED_CLONES
void rb_interior(const float* HS_RESTRICT raw, float* HS_RESTRICT out, int h,
                 int w, const MosaicTabs& t) {
  for (int y = 1; y < h - 1; ++y) {
    const int py = y & 1;
    const float* rp = raw + static_cast<std::ptrdiff_t>(y) * w;
    float* op = out + static_cast<std::ptrdiff_t>(y) * w * 3;
    for (int x = 1; x < w - 1; ++x) {
      const int own = t.pc[py][x & 1];
      float* o = op + x * 3;
      const float g0 = o[1];
      for (int c = 0; c <= 2; c += 2) {
        if (c == own) {
          o[c] = rp[x];
          continue;
        }
        const OffsetTab& tab = t.tab[py][x & 1][c];
        float diff = 0.0f;
        for (int k = 0; k < tab.n; ++k) {
          diff += rp[x + tab.off[k]] - o[1 + tab.off3[k]];
        }
        const float v = g0 + (tab.n ? diff / tab.n : 0.0f);
        o[c] = std::clamp(v, 0.0f, 1.0f);
      }
    }
  }
}

void interpolate_rb_fast(const MosaicView& m, const MosaicTabs& t,
                         Image& out) {
  rb_interior(m.raw.data(), out.data(), m.h, m.w, t);
  for (int x = 0; x < m.w; ++x) {
    rb_pixel(m, out, 0, x);
    if (m.h > 1) rb_pixel(m, out, m.h - 1, x);
  }
  for (int y = 1; y < m.h - 1; ++y) {
    rb_pixel(m, out, y, 0);
    if (m.w > 1) rb_pixel(m, out, y, m.w - 1);
  }
}

Image demosaic_ppg_fast(const MosaicView& m) {
  Image out(static_cast<std::size_t>(m.h), static_cast<std::size_t>(m.w));
  const MosaicTabs t = make_tabs(m);
  interpolate_green_fast(m, t, out.data() + 1, 3, GreenDir::kAdaptive);
  interpolate_rb_fast(m, t, out);
  return out;
}

/// 3x3 total variation of one green plane (border fallback); seed math,
/// including the zero-valued centre term so the accumulation order matches.
float tv_plane(const float* g, int h, int w, int y, int x) {
  float acc = 0.0f;
  const float centre = g[static_cast<std::ptrdiff_t>(std::clamp(y, 0, h - 1)) *
                             w +
                         std::clamp(x, 0, w - 1)];
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      const int yy = std::clamp(y + dy, 0, h - 1);
      const int xx = std::clamp(x + dx, 0, w - 1);
      acc += std::abs(g[static_cast<std::ptrdiff_t>(yy) * w + xx] - centre);
    }
  }
  return acc;
}

HS_TILED_CLONES
void ahd_pick_interior(const float* HS_RESTRICT gh,
                       const float* HS_RESTRICT gv, float* HS_RESTRICT out,
                       int h, int w) {
  for (int y = 1; y < h - 1; ++y) {
    const float* hp = gh + static_cast<std::ptrdiff_t>(y) * w;
    const float* vp = gv + static_cast<std::ptrdiff_t>(y) * w;
    float* op = out + static_cast<std::ptrdiff_t>(y) * w * 3;
    for (int x = 1; x < w - 1; ++x) {
      const float ch = hp[x];
      const float cv = vp[x];
      float th = 0.0f, tt = 0.0f;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          th += std::abs(hp[dy * w + x + dx] - ch);
          tt += std::abs(vp[dy * w + x + dx] - cv);
        }
      }
      op[x * 3 + 1] = th <= tt ? ch : cv;
    }
  }
}

Image demosaic_ahd_fast(const MosaicView& m) {
  const MosaicTabs t = make_tabs(m);
  const std::size_t plane = static_cast<std::size_t>(m.h) *
                            static_cast<std::size_t>(m.w);
  float* gh = img::scratch(img::kSlotDemosaicA, plane);
  float* gv = img::scratch(img::kSlotDemosaicB, plane);
  interpolate_green_fast(m, t, gh, 1, GreenDir::kHorizontal);
  interpolate_green_fast(m, t, gv, 1, GreenDir::kVertical);

  Image out(static_cast<std::size_t>(m.h), static_cast<std::size_t>(m.w));
  ahd_pick_interior(gh, gv, out.data(), m.h, m.w);
  auto pick_pixel = [&](int y, int x) {
    const float th = tv_plane(gh, m.h, m.w, y, x);
    const float tt = tv_plane(gv, m.h, m.w, y, x);
    const float* src = th <= tt ? gh : gv;
    out.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x), 1) =
        src[static_cast<std::ptrdiff_t>(y) * m.w + x];
  };
  for (int x = 0; x < m.w; ++x) {
    pick_pixel(0, x);
    if (m.h > 1) pick_pixel(m.h - 1, x);
  }
  for (int y = 1; y < m.h - 1; ++y) {
    pick_pixel(y, 0);
    if (m.w > 1) pick_pixel(y, m.w - 1);
  }
  interpolate_rb_fast(m, t, out);
  return out;
}

Image demosaic_binning_fast(const MosaicView& m) {
  const int oh = m.h / 2, ow = m.w / 2;
  Image half(static_cast<std::size_t>(oh), static_cast<std::size_t>(ow));
  const MosaicTabs t = make_tabs(m);
  const float* raw = m.raw.data();
  float* hp = half.data();
  for (int ty = 0; ty < oh; ++ty) {
    const float* r0 = raw + static_cast<std::ptrdiff_t>(2 * ty) * m.w;
    const float* r1 = r0 + m.w;
    float* o = hp + static_cast<std::ptrdiff_t>(ty) * ow * 3;
    for (int tx = 0; tx < ow; ++tx) {
      float rgb[3] = {0, 0, 0};
      int counts[3] = {0, 0, 0};
      const float v[4] = {r0[2 * tx], r0[2 * tx + 1], r1[2 * tx],
                          r1[2 * tx + 1]};
      const int c[4] = {t.pc[0][0], t.pc[0][1], t.pc[1][0], t.pc[1][1]};
      for (int k = 0; k < 4; ++k) {
        rgb[c[k]] += v[k];
        ++counts[c[k]];
      }
      for (int cc = 0; cc < 3; ++cc) {
        if (counts[cc]) rgb[cc] /= static_cast<float>(counts[cc]);
      }
      o[tx * 3] = rgb[0];
      o[tx * 3 + 1] = rgb[1];
      o[tx * 3 + 2] = rgb[2];
    }
  }
  return resize_bilinear(half, static_cast<std::size_t>(m.h),
                         static_cast<std::size_t>(m.w));
}

}  // namespace

const char* demosaic_name(DemosaicAlgo algo) {
  switch (algo) {
    case DemosaicAlgo::kBilinear: return "bilinear";
    case DemosaicAlgo::kPPG: return "ppg";
    case DemosaicAlgo::kAHD: return "ahd";
    case DemosaicAlgo::kPixelBinning: return "pixel-binning";
  }
  return "?";
}

Image demosaic(const RawImage& raw, DemosaicAlgo algo) {
  HS_CHECK(!raw.empty(), "demosaic: empty RAW input");
  const MosaicView m{raw, static_cast<int>(raw.height()),
                     static_cast<int>(raw.width())};
  if (img::fast_path()) {
    switch (algo) {
      case DemosaicAlgo::kBilinear: return demosaic_bilinear_fast(m);
      case DemosaicAlgo::kPPG: return demosaic_ppg_fast(m);
      case DemosaicAlgo::kAHD: return demosaic_ahd_fast(m);
      case DemosaicAlgo::kPixelBinning: return demosaic_binning_fast(m);
    }
    return demosaic_bilinear_fast(m);
  }
  switch (algo) {
    case DemosaicAlgo::kBilinear: return demosaic_bilinear(m);
    case DemosaicAlgo::kPPG: return demosaic_ppg(m);
    case DemosaicAlgo::kAHD: return demosaic_ahd(m);
    case DemosaicAlgo::kPixelBinning: return demosaic_binning(m);
  }
  return demosaic_bilinear(m);
}

}  // namespace hetero
