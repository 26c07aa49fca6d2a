// Dense float32 tensor used throughout the library.
//
// Deliberately simple: row-major contiguous storage, value semantics, shape
// checked at the API boundary with HS_CHECK. The NN layers (src/nn) run
// conv and matmul through the compute kernels in src/kernels. There is no
// autograd graph — layers implement forward/backward explicitly, which keeps
// the federated-learning parameter flattening trivial and the memory
// behaviour predictable.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hetero {

/// std::allocator variant whose value-less construct() default-initializes
/// instead of value-initializing, so vector<float, ...>(n) leaves the
/// elements uninitialized. Tensor uses it as storage: the normal shape
/// constructor still zero-fills explicitly (same contract as before), but
/// Tensor::uninit can skip the memset for outputs that every code path
/// overwrites in full before reading.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;  // default-init: no zeroing for floats
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

/// Throws std::invalid_argument with the given message when cond is false.
/// Used for shape/argument validation on all tensor entry points.
inline void hs_check(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

#define HS_CHECK(cond, msg) ::hetero::hs_check((cond), (msg))

class Rng;  // from util/rng.h

/// Row-major dense float tensor with value semantics.
class Tensor {
 public:
  /// Empty (rank-0, zero elements) tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape. Zero-sized dims allowed.
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::initializer_list<std::size_t> shape);

  /// Tensor with explicit contents; data.size() must match the shape volume.
  Tensor(std::vector<std::size_t> shape, std::vector<float> data);

  // -- Factories ------------------------------------------------------------
  static Tensor zeros(std::vector<std::size_t> shape);
  /// Tensor whose elements are left uninitialized. Only for outputs that the
  /// caller overwrites in full before any read (layer forward outputs, gather
  /// buffers); everything else should take the zeroing constructor.
  static Tensor uninit(std::vector<std::size_t> shape);
  static Tensor ones(std::vector<std::size_t> shape);
  static Tensor full(std::vector<std::size_t> shape, float value);
  /// I.I.D. normal entries: mean 0, given stddev.
  static Tensor randn(std::vector<std::size_t> shape, Rng& rng,
                      float stddev = 1.0f);
  /// I.I.D. uniform entries in [lo, hi).
  static Tensor rand_uniform(std::vector<std::size_t> shape, Rng& rng,
                             float lo, float hi);

  // -- Shape ----------------------------------------------------------------
  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t dim(std::size_t i) const;
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }
  std::string shape_str() const;

  /// Returns a copy with a new shape of identical volume.
  Tensor reshaped(std::vector<std::size_t> new_shape) const;
  /// In-place reshape (volume must match).
  void reshape(std::vector<std::size_t> new_shape);

  // -- Element access ---------------------------------------------------
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return std::span<float>(data_); }
  std::span<const float> flat() const { return std::span<const float>(data_); }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Multi-dim access (bounds-checked in debug via assert-style HS_CHECK).
  float& at(std::size_t i0);
  float& at(std::size_t i0, std::size_t i1);
  float& at(std::size_t i0, std::size_t i1, std::size_t i2);
  float& at(std::size_t i0, std::size_t i1, std::size_t i2, std::size_t i3);
  float at(std::size_t i0) const;
  float at(std::size_t i0, std::size_t i1) const;
  float at(std::size_t i0, std::size_t i1, std::size_t i2) const;
  float at(std::size_t i0, std::size_t i1, std::size_t i2,
           std::size_t i3) const;

  // -- In-place arithmetic ----------------------------------------------
  void fill(float value);
  void zero() { fill(0.0f); }
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float s);
  /// this += s * other (BLAS axpy).
  void axpy(float s, const Tensor& other);
  /// Hadamard product in place.
  void mul_inplace(const Tensor& other);
  /// Clamps every element into [lo, hi].
  void clamp(float lo, float hi);

  // -- Reductions -------------------------------------------------------
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// Index of the maximum element (first on ties); tensor must be non-empty.
  std::size_t argmax() const;
  /// L2 norm of the flattened tensor.
  float norm() const;

  // -- Misc -------------------------------------------------------------
  /// Row i of a rank>=2 tensor as a copied tensor of shape shape[1:].
  Tensor slice0(std::size_t i) const;
  /// Writes a rank-(r-1) tensor into row i.
  void set_slice0(std::size_t i, const Tensor& value);

  friend bool operator==(const Tensor& a, const Tensor& b) {
    return a.shape_ == b.shape_ && a.data_ == b.data_;
  }

 private:
  using Storage = std::vector<float, DefaultInitAllocator<float>>;
  struct UninitTag {};
  Tensor(UninitTag, std::vector<std::size_t> shape);

  std::size_t offset1(std::size_t i0) const;
  std::size_t offset2(std::size_t i0, std::size_t i1) const;
  std::size_t offset3(std::size_t i0, std::size_t i1, std::size_t i2) const;
  std::size_t offset4(std::size_t i0, std::size_t i1, std::size_t i2,
                      std::size_t i3) const;

  std::vector<std::size_t> shape_;
  Storage data_;
};

/// Number of elements implied by a shape (product of dims; 1 for rank 0).
std::size_t shape_volume(const std::vector<std::size_t>& shape);

// Out-of-place arithmetic helpers.
Tensor operator+(Tensor a, const Tensor& b);
Tensor operator-(Tensor a, const Tensor& b);
Tensor operator*(Tensor a, float s);
Tensor operator*(float s, Tensor a);

}  // namespace hetero
