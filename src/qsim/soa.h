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
// entirely (see qsim/kernels.h, "SoA kernels"). The folded Grover kernel
// (kernels::grover_iterations) reads the cache once per run of iterations
// and refreshes it from the stored values at the run's end; in between the
// block sums live in the kernel's recurrence, not here.
#pragma once

#include <algorithm>
#include <cstddef>
#include <new>
#include <span>
#include <vector>

#include "qsim/types.h"

namespace pqs::qsim {

/// Plane memory, 64-byte aligned, with a per-thread cache of the last two
/// planes of at most kCachedBytes the thread freed, handed back to its next
/// allocations of the same size. A Service worker runs request after
/// request on same-size states. Sent back through malloc, each request's
/// planes leave holes in the worker's arena that small allocations
/// outliving the request split, so the arena grows: the n = 14 fleet of
/// perfbench serve_cached_routed peaks at 42 MB that way and at 18 MB with
/// this cache (4-core host). Mapping every plane instead cost serve_fresh
/// two thirds of its throughput. Larger planes go to malloc, so a thread
/// pins at most 2 MiB here.
class PlaneCache {
 public:
  static constexpr std::align_val_t kAlign{64};
  static constexpr std::size_t kCachedBytes = std::size_t{1} << 20;

  PlaneCache() = default;
  PlaneCache(const PlaneCache&) = delete;
  PlaneCache& operator=(const PlaneCache&) = delete;
  ~PlaneCache() {
    for (Slot& slot : slots_) {
      if (slot.p != nullptr) {
        ::operator delete(slot.p, kAlign);
      }
    }
  }

  static void* take(std::size_t bytes) {
    Slot* slots = local().slots_;
    for (int i = 0; i < 2; ++i) {
      if (slots[i].p != nullptr && slots[i].bytes == bytes) {
        void* p = slots[i].p;
        if (i == 0) {
          slots[0] = slots[1];
        }
        slots[1] = Slot{};
        return p;
      }
    }
    return ::operator new(bytes, kAlign);
  }

  /// Slots fill in order, so slots_[0] holds the older plane.
  static void give(void* p, std::size_t bytes) {
    if (bytes > kCachedBytes) {
      ::operator delete(p, kAlign);
      return;
    }
    Slot* slots = local().slots_;
    if (slots[0].p == nullptr) {
      slots[0] = Slot{p, bytes};
      return;
    }
    if (slots[1].p != nullptr) {
      ::operator delete(slots[0].p, kAlign);
      slots[0] = slots[1];
    }
    slots[1] = Slot{p, bytes};
  }

 private:
  struct Slot {
    void* p = nullptr;
    std::size_t bytes = 0;
  };

  static PlaneCache& local() {
    thread_local PlaneCache cache;
    return cache;
  }

  Slot slots_[2];
};

/// Minimal allocator over PlaneCache: plane starts land on cache-line (and
/// AVX-512 register) boundaries regardless of libc malloc behaviour.
template <typename T>
struct AlignedAlloc64 {
  using value_type = T;

  AlignedAlloc64() = default;
  template <typename U>
  AlignedAlloc64(const AlignedAlloc64<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(PlaneCache::take(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) { PlaneCache::give(p, n * sizeof(T)); }

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
