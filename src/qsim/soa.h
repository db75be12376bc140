// Structure-of-arrays amplitude storage for the dense engine.
//
// The real and imaginary parts live in two separate contiguous double
// planes, so the SIMD kernel tiers (qsim/kernels_ops.h) stream homogeneous
// lanes instead of shuffling interleaved re/im pairs. SoaVector is a dumb
// container plus a block-sum cache; all arithmetic and all cache POLICY
// lives in qsim::kernels — code that mutates the planes without going
// through those kernels must call invalidate_sums().
//
// A state costs one write pass to build: planes are allocated with nothing
// written, and the constructor (or fill) writes every element once, in a
// parallel_for over the kernels' fixed kChunk partition on the team
// parallel_threads(size) picks, so each thread first-touches the pages it
// later sweeps. Planes up to Plane::kCachedBytes come from the calling
// thread's PlaneCache (qsim/soa.cpp); larger ones are 2 MiB aligned and
// advised MADV_HUGEPAGE, so with transparent huge pages in `madvise` or
// `always` mode they fault in, and are swept, a huge page at a time.
//
// The sum cache is what makes the SoA engine faster than memory bandwidth
// naively allows: reflect/rotate kernels accumulate the sums of the values
// they store, so the next same-partition reflection skips its read pass
// entirely (see qsim/kernels.h, "SoA kernels"). The folded Grover kernel
// (kernels::grover_iterations) reads the cache once per run of iterations
// and refreshes it from the stored values at the run's end; in between the
// block sums live in the kernel's recurrence, not here.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "qsim/types.h"

namespace pqs::qsim {

/// One owning plane of doubles. Allocation writes nothing: SoaVector writes
/// every element once.
class Plane {
 public:
  /// Planes of at most this many bytes are 64-byte aligned and cached per
  /// thread; larger ones are 2 MiB aligned and advised MADV_HUGEPAGE.
  static constexpr std::size_t kCachedBytes = std::size_t{1} << 20;

  Plane() = default;
  explicit Plane(std::size_t size)
      : data_(size == 0 ? nullptr : allocate(size)), size_(size) {}
  Plane(const Plane& other);
  Plane(Plane&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  Plane& operator=(Plane other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~Plane() { release(data_, size_); }

  std::size_t size() const { return size_; }
  double* data() { return data_; }
  const double* data() const { return data_; }

 private:
  static double* allocate(std::size_t size);
  static void release(double* p, std::size_t size);

  double* data_ = nullptr;
  std::size_t size_ = 0;
};

class SoaVector {
 public:
  SoaVector() = default;
  /// Planes of the given length with every element set to `a` (zero by
  /// default), in one parallel write pass.
  explicit SoaVector(std::size_t size, Amplitude a = {});

  static SoaVector from_amplitudes(const std::vector<Amplitude>& amps) {
    SoaVector v(amps.size(), Unfilled{});
    for (std::size_t i = 0; i < amps.size(); ++i) {
      v.set(i, amps[i]);
    }
    return v;
  }

  std::size_t size() const { return re_.size(); }

  double* re() { return re_.data(); }
  double* im() { return im_.data(); }
  const double* re() const { return re_.data(); }
  const double* im() const { return im_.data(); }
  std::span<const double> re_span() const { return {re_.data(), size()}; }
  std::span<const double> im_span() const { return {im_.data(), size()}; }

  Amplitude get(std::size_t i) const { return Amplitude{re()[i], im()[i]}; }
  /// Plain store; invalidates the sum cache, which cannot follow an
  /// arbitrary store. Code writing through re()/im() outside qsim::kernels
  /// must invalidate_sums() itself.
  void set(std::size_t i, Amplitude a) {
    re()[i] = a.real();
    im()[i] = a.imag();
    invalidate_sums();
  }

  /// Every element <- a, in one parallel write pass. Seeds the sum cache
  /// for the global partition (kernels::seed_uniform_sums), so the first
  /// global reflection skips its read pass.
  void fill(Amplitude a);

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
  /// True while the cache holds the fill seed (kernels::seed_uniform_sums)
  /// and no kernel pass has stored sums since.
  bool sums_seeded() const { return sums_seeded_; }
  void invalidate_sums() {
    sum_block_size_ = 0;
    sums_seeded_ = false;
  }
  /// Declare the cache valid for `block_size`, resizing the sum arrays to
  /// size()/block_size (the kernel that calls this fills them). `seeded`
  /// marks the fill seed.
  void mark_sums(std::size_t block_size, bool seeded = false) {
    sum_block_size_ = block_size;
    sums_seeded_ = seeded;
    sum_re_.assign(block_size == 0 ? 0 : size() / block_size, 0.0);
    sum_im_.assign(block_size == 0 ? 0 : size() / block_size, 0.0);
  }
  std::vector<double>& sum_re() { return sum_re_; }
  std::vector<double>& sum_im() { return sum_im_; }
  const std::vector<double>& sum_re() const { return sum_re_; }
  const std::vector<double>& sum_im() const { return sum_im_; }

 private:
  /// Planes allocated with nothing written; the caller writes every element.
  struct Unfilled {};
  SoaVector(std::size_t size, Unfilled) : re_(size), im_(size) {}

  Plane re_, im_;
  std::size_t sum_block_size_ = 0;  ///< 0 = cache invalid
  bool sums_seeded_ = false;
  std::vector<double> sum_re_, sum_im_;
};

}  // namespace pqs::qsim
