#include "qsim/soa.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <new>

#include "qsim/kernels.h"
#include "qsim/parallel.h"

namespace pqs::qsim {

namespace {

constexpr std::align_val_t kCacheLineAlign{64};
constexpr std::align_val_t kHugePageAlign{std::size_t{2} << 20};

/// The calling thread's last two freed planes of at most Plane::kCachedBytes
/// (slots[0] the older), handed to its next allocations of the same size. A
/// Service worker runs request after request on same-size states; through
/// malloc, each request's planes leave holes in the worker's arena that small
/// allocations outliving the request split (the n = 14 serve_cached_routed
/// fleet peaks at 42 MB that way, 18 MB with this cache; mapping every plane
/// instead cost serve_fresh two thirds of its throughput). A thread pins at
/// most 2 MiB here.
struct PlaneCache {
  struct Slot {
    void* p = nullptr;
    std::size_t bytes = 0;
  };
  Slot slots[2];

  ~PlaneCache() {
    for (const Slot& slot : slots) {
      ::operator delete(slot.p, kCacheLineAlign);
    }
  }

  void* take(std::size_t bytes) {
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
    return ::operator new(bytes, kCacheLineAlign);
  }

  void give(void* p, std::size_t bytes) {
    if (slots[1].p != nullptr) {
      ::operator delete(slots[0].p, kCacheLineAlign);
      slots[0] = slots[1];
      slots[1] = Slot{};
    }
    slots[slots[0].p == nullptr ? 0 : 1] = Slot{p, bytes};
  }
};

thread_local PlaneCache t_plane_cache;

}  // namespace

double* Plane::allocate(std::size_t size) {
  const std::size_t bytes = size * sizeof(double);
  if (bytes <= kCachedBytes) {
    return static_cast<double*>(t_plane_cache.take(bytes));
  }
  void* p = ::operator new(bytes, kHugePageAlign);
#ifdef MADV_HUGEPAGE
  // Only a hint: where the kernel refuses it, the plane keeps small pages.
  (void)::madvise(p, bytes, MADV_HUGEPAGE);
#endif
  return static_cast<double*>(p);
}

void Plane::release(double* p, std::size_t size) {
  if (p == nullptr) {
    return;
  }
  const std::size_t bytes = size * sizeof(double);
  if (bytes <= kCachedBytes) {
    t_plane_cache.give(p, bytes);
  } else {
    ::operator delete(p, kHugePageAlign);
  }
}

Plane::Plane(const Plane& other) : Plane(other.size_) {
  std::copy_n(other.data_, size_, data_);
}

SoaVector::SoaVector(std::size_t size, Amplitude a)
    : SoaVector(size, Unfilled{}) {
  fill(a);
}

void SoaVector::fill(Amplitude a) {
  double* re = re_.data();
  double* im = im_.data();
  const std::size_t n = size();
  const double a_re = a.real();
  const double a_im = a.imag();
  parallel_for(static_cast<std::int64_t>((n + kChunk - 1) / kChunk),
               parallel_threads(n), [=](std::int64_t c) {
                 const std::size_t off = static_cast<std::size_t>(c) * kChunk;
                 const std::size_t len = std::min(kChunk, n - off);
                 std::fill_n(re + off, len, a_re);
                 std::fill_n(im + off, len, a_im);
               });
  kernels::seed_uniform_sums(*this);
}

}  // namespace pqs::qsim
