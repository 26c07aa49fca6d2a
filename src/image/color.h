// Colour-science primitives: sRGB transfer function, 3x3 colour matrices,
// RGB<->XYZ and the ProPhoto (ROMM) primaries used by the gamut-mapping ISP
// stage, plus HSV helpers for the scene generator.
#pragma once

#include <array>

#include "image/image.h"

namespace hetero {

/// 3x3 colour matrix, row-major. out = M * in with in = (R,G,B)^T.
using ColorMatrix = std::array<float, 9>;

/// Applies a 3x3 matrix to every pixel of an image (in place copy-out).
Image apply_color_matrix(const Image& img, const ColorMatrix& m);

/// Matrix product a*b.
ColorMatrix matmul3(const ColorMatrix& a, const ColorMatrix& b);

/// Identity matrix.
ColorMatrix identity3();

/// Inverse of a 3x3 matrix; throws std::invalid_argument if singular.
ColorMatrix inverse3(const ColorMatrix& m);

/// sRGB electro-optical transfer: linear -> gamma-encoded, per component.
float srgb_encode(float linear);
/// Inverse transfer: gamma-encoded -> linear.
float srgb_decode(float encoded);

/// Encodes/decodes an entire image.
Image srgb_encode(const Image& linear);
Image srgb_decode(const Image& encoded);

/// Rec.709/sRGB luminance of a linear RGB pixel. Inline so the ISP's wide
/// clones (tone equalization) compute it on their own ISA.
inline float luminance(float r, float g, float b) {
  return 0.2126f * r + 0.7152f * g + 0.0722f * b;
}

/// Linear sRGB -> CIE XYZ (D65).
extern const ColorMatrix kSrgbToXyz;
/// CIE XYZ (D65) -> linear sRGB.
extern const ColorMatrix kXyzToSrgb;
/// Linear sRGB -> linear ProPhoto RGB (through XYZ; white-point handling is
/// simplified to a direct matrix, adequate for simulating gamut mismatch).
extern const ColorMatrix kSrgbToProphoto;
extern const ColorMatrix kProphotoToSrgb;
/// Linear sRGB -> linear Display-P3 (the mild wide gamut phone flagships
/// actually store) and back.
extern const ColorMatrix kSrgbToDisplayP3;
extern const ColorMatrix kDisplayP3ToSrgb;

/// HSV (h in [0,360), s,v in [0,1]) to linear-ish RGB; used for procedural
/// scene colours.
void hsv_to_rgb(float h, float s, float v, float& r, float& g, float& b);

}  // namespace hetero
