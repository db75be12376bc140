// Structure-of-arrays amplitude storage for the dense engine.
//
// The real and imaginary parts live in two separate contiguous double
// planes, 64-byte aligned, so the SIMD kernel tiers (qsim/kernels_ops.h)
// stream homogeneous lanes instead of shuffling interleaved re/im pairs.
// SoaVector is a dumb container plus a block-sum cache; all arithmetic and
// all cache POLICY lives in qsim::kernels — code that mutates the planes
// without going through those kernels must call invalidate_sums().
//
// The sum cache is what makes the SoA engine faster than memory bandwidth
// naively allows: reflect/rotate kernels accumulate the sums of the values
// they store, so the next same-partition reflection skips its read pass
// entirely (see qsim/kernels.h, "SoA kernels").
#pragma once

#include <algorithm>
#include <cstddef>
#include <new>
#include <span>
#include <vector>

#include "qsim/types.h"

namespace pqs::qsim {

/// Minimal 64-byte-aligned allocator: plane starts land on cache-line (and
/// AVX-512 register) boundaries regardless of libc malloc behaviour.
template <typename T>
struct AlignedAlloc64 {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  AlignedAlloc64() = default;
  template <typename U>
  AlignedAlloc64(const AlignedAlloc64<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, kAlign); }

  template <typename U>
  bool operator==(const AlignedAlloc64<U>&) const {
    return true;
  }
};

class SoaVector {
 public:
  using Plane = std::vector<double, AlignedAlloc64<double>>;

  SoaVector() = default;
  /// Zero-filled planes of the given length.
  explicit SoaVector(std::size_t size) : re_(size, 0.0), im_(size, 0.0) {}

  static SoaVector from_amplitudes(const std::vector<Amplitude>& amps) {
    SoaVector v(amps.size());
    for (std::size_t i = 0; i < amps.size(); ++i) {
      v.re_[i] = amps[i].real();
      v.im_[i] = amps[i].imag();
    }
    return v;
  }

  std::size_t size() const { return re_.size(); }

  double* re() { return re_.data(); }
  double* im() { return im_.data(); }
  const double* re() const { return re_.data(); }
  const double* im() const { return im_.data(); }
  std::span<const double> re_span() const { return re_; }
  std::span<const double> im_span() const { return im_; }

  Amplitude get(std::size_t i) const { return Amplitude{re_[i], im_[i]}; }
  /// Plain store. Does NOT touch the sum cache — callers mutating
  /// amplitudes outside qsim::kernels must invalidate_sums() afterwards.
  void set(std::size_t i, Amplitude a) {
    re_[i] = a.real();
    im_[i] = a.imag();
  }

  /// Every element <- a. Invalidates the sum cache.
  void fill(Amplitude a) {
    std::fill(re_.begin(), re_.end(), a.real());
    std::fill(im_.begin(), im_.end(), a.imag());
    invalidate_sums();
  }

  std::vector<Amplitude> to_amplitudes() const {
    std::vector<Amplitude> out(size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = get(i);
    }
    return out;
  }

  // -- Block-sum cache (maintained by the qsim::kernels SoA layer) --
  // When valid for partition `block_size`, sum_re()[b] + i*sum_im()[b] is
  // the amplitude sum of block b (indices [b*bs, (b+1)*bs)).

  bool sums_valid(std::size_t block_size) const {
    return sum_block_size_ == block_size && block_size != 0;
  }
  std::size_t sum_block_size() const { return sum_block_size_; }
  void invalidate_sums() { sum_block_size_ = 0; }
  /// Declare the cache valid for `block_size`, resizing the sum arrays to
  /// size()/block_size (the kernel that calls this fills them).
  void mark_sums(std::size_t block_size) {
    sum_block_size_ = block_size;
    sum_re_.assign(block_size == 0 ? 0 : size() / block_size, 0.0);
    sum_im_.assign(block_size == 0 ? 0 : size() / block_size, 0.0);
  }
  std::vector<double>& sum_re() { return sum_re_; }
  std::vector<double>& sum_im() { return sum_im_; }
  const std::vector<double>& sum_re() const { return sum_re_; }
  const std::vector<double>& sum_im() const { return sum_im_; }

 private:
  Plane re_, im_;
  std::size_t sum_block_size_ = 0;  ///< 0 = cache invalid
  std::vector<double> sum_re_, sum_im_;
};

}  // namespace pqs::qsim
