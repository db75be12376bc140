// SoA kernel composition layer: chunking, threading (qsim/parallel.h), the
// block-sum cache, and ISA dispatch. The arithmetic itself lives in the
// per-tier segment primitives: qsim/kernels_scalar.cpp, and the one SIMD
// source qsim/kernels_simd.h that kernels_avx2.cpp and kernels_avx512.cpp
// instantiate with their register traits.
//
// Determinism contract: every mean/reduction is a fixed-chunk pairwise sum —
// segments of kChunk elements are reduced by the tier primitive and the
// per-chunk partials are combined pairwise — so results do not depend on the
// thread count and stay within ulps of a recursive pairwise sum.
//
// Cache contract: the reflect/rotate update passes accumulate the sums of
// the values they store and refresh SoaVector's block-sum cache from them,
// so the cache is always recomputed from stored data once per kernel call
// (incremental oracle deltas never survive more than one iteration — no
// drift accumulation). grover_iterations refreshes it the same way once per
// run: its recurrence carries the block sums through the whole run, and the
// refresh drops the recurrence's rounding. Every tier reads and refreshes
// the cache the same way: the tier only picks the KernelOps table
// (kernel_ops below), and the serial reference loops in
// tests/reference_kernels.h are what the equivalence tests trust.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "qsim/kernels.h"
#include "qsim/kernels_ops.h"
#include "qsim/parallel.h"

namespace pqs::qsim::kernels {

const KernelOps& kernel_ops(Isa isa) {
  PQS_CHECK_MSG(isa_supported(isa), "requested ISA tier is not supported");
  switch (isa) {
    case Isa::kScalar:
      return scalar_kernel_ops();
    case Isa::kAvx2:
      return avx2_kernel_ops();
    case Isa::kAvx512:
      return avx512_kernel_ops();
  }
  return scalar_kernel_ops();
}

const KernelOps& active_kernel_ops() { return kernel_ops(active_isa()); }

namespace {

using SIdx = std::int64_t;

std::size_t chunks_for(std::size_t len) {
  return (len + kChunk - 1) / kChunk;
}

/// Pairwise combine of chunk partials (the second reduction level).
double combine_pairwise(const double* p, std::size_t n) {
  if (n <= 8) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      s += p[i];
    }
    return s;
  }
  const std::size_t mid = n / 2;
  return combine_pairwise(p, mid) + combine_pairwise(p + mid, n - mid);
}

/// Deterministic chunked sum of planes over [lo, lo + len).
void sum_range(const double* re, const double* im, std::size_t lo,
               std::size_t len, const KernelOps& ops, double* out_re,
               double* out_im) {
  const std::size_t nc = chunks_for(len);
  if (nc <= 1) {
    ops.sum(re + lo, im + lo, len, out_re, out_im);
    return;
  }
  std::vector<double> pr(nc), pi(nc);
  parallel_for(static_cast<SIdx>(nc), parallel_threads(len), [&](SIdx c) {
    const std::size_t off = lo + static_cast<std::size_t>(c) * kChunk;
    const std::size_t clen = std::min(kChunk, lo + len - off);
    ops.sum(re + off, im + off, clen, &pr[static_cast<std::size_t>(c)],
            &pi[static_cast<std::size_t>(c)]);
  });
  *out_re = combine_pairwise(pr.data(), nc);
  *out_im = combine_pairwise(pi.data(), nc);
}

/// Per-block sums for partition `bs`, from the cache when it holds that
/// partition, recomputed otherwise. Writes size()/bs entries.
void block_sums(const SoaVector& v, std::size_t bs, const KernelOps& ops,
                std::vector<double>& sr, std::vector<double>& si) {
  const std::size_t nb = v.size() / bs;
  sr.resize(nb);
  si.resize(nb);
  if (v.sums_valid(bs)) {
    sr = v.sum_re();
    si = v.sum_im();
    return;
  }
  // Both loops below sweep the whole vector, whatever their iteration count.
  const unsigned threads = parallel_threads(v.size());
  const std::size_t cpb = chunks_for(bs);
  if (cpb == 1) {
    parallel_for(static_cast<SIdx>(nb), threads, [&](SIdx b) {
      const auto ub = static_cast<std::size_t>(b);
      ops.sum(v.re() + ub * bs, v.im() + ub * bs, bs, &sr[ub], &si[ub]);
    });
    return;
  }
  std::vector<double> pr(nb * cpb), pi(nb * cpb);
  parallel_for(static_cast<SIdx>(nb * cpb), threads, [&](SIdx t) {
    const auto ut = static_cast<std::size_t>(t);
    const std::size_t b = ut / cpb;
    const std::size_t off = b * bs + (ut % cpb) * kChunk;
    const std::size_t clen = std::min(kChunk, (b + 1) * bs - off);
    ops.sum(v.re() + off, v.im() + off, clen, &pr[ut], &pi[ut]);
  });
  for (std::size_t b = 0; b < nb; ++b) {
    sr[b] = combine_pairwise(pr.data() + b * cpb, cpb);
    si[b] = combine_pairwise(pi.data() + b * cpb, cpb);
  }
}

/// Shared update pass of the block kernels: per block apply either
/// a <- t_b - a (reflect) or a <- a + t_b (add), accumulating the stored
/// values; then store `pinned_re/im[j]` at `pinned[j]` (sorted), correcting
/// its chunk's partial sum, and refresh the sum cache from the partials.
void block_update(SoaVector& v, std::size_t bs, const KernelOps& ops,
                  bool is_reflect, std::span<const double> tr,
                  std::span<const double> ti,
                  std::span<const Index> pinned = {},
                  std::span<const double> pinned_re = {},
                  std::span<const double> pinned_im = {}) {
  const std::size_t nb = v.size() / bs;
  const std::size_t cpb = chunks_for(bs);
  std::vector<double> parts(2 * nb * cpb);
  double* const pr = parts.data();
  double* const pi = pr + nb * cpb;
  parallel_for(static_cast<SIdx>(nb * cpb), parallel_threads(v.size()),
               [&](SIdx t) {
    const auto ut = static_cast<std::size_t>(t);
    const std::size_t b = ut / cpb;
    const std::size_t off = b * bs + (ut % cpb) * kChunk;
    const std::size_t clen = std::min(kChunk, (b + 1) * bs - off);
    if (is_reflect) {
      ops.reflect(v.re() + off, v.im() + off, clen, tr[b], ti[b], &pr[ut],
                  &pi[ut]);
    } else {
      ops.add(v.re() + off, v.im() + off, clen, tr[b], ti[b], &pr[ut],
              &pi[ut]);
    }
  });
  for (std::size_t j = 0; j < pinned.size(); ++j) {
    const Index m = pinned[j];
    const std::size_t b = m / bs;
    const std::size_t ut = b * cpb + (m - b * bs) / kChunk;
    pr[ut] += pinned_re[j] - v.re()[m];
    pi[ut] += pinned_im[j] - v.im()[m];
    v.re()[m] = pinned_re[j];
    v.im()[m] = pinned_im[j];
  }
  v.mark_sums(bs);
  for (std::size_t b = 0; b < nb; ++b) {
    v.sum_re()[b] = combine_pairwise(pr + b * cpb, cpb);
    v.sum_im()[b] = combine_pairwise(pi + b * cpb, cpb);
  }
}

/// The cache partition an O(1) in-place update (an oracle phase) carries
/// its delta into; 0 when there is none. The fill seed is
/// dropped instead: the folded Grover runs read it before any op, and a
/// per-op path then reads the state exactly as it did before fills were
/// seeded, so its results keep their bytes.
std::size_t incremental_partition(SoaVector& v) {
  if (v.sums_seeded()) {
    v.invalidate_sums();
  }
  return v.sum_block_size();
}

// The Paulis as KernelOps::gate1 matrices, {m00, m01, m10, m11} as re/im
// pairs. Y's off-diagonal entries are -i = {-0.0, -1.0} and i = {0.0, 1.0}:
// the bits the complex negation -i gives, so trajectories keep their bytes.
constexpr double kPauliX[8] = {0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0};
constexpr double kPauliY[8] = {0.0, 0.0, -0.0, -1.0, 0.0, 1.0, 0.0, 0.0};
constexpr double kPauliZ[8] = {1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0};

}  // namespace

void apply_pauli(SoaVector& v, unsigned n_qubits, unsigned q, Pauli p) {
  PQS_CHECK_MSG(v.size() == pow2(n_qubits),
                "state size does not match qubit count");
  PQS_CHECK_MSG(q < n_qubits, "qubit index out of range");
  const KernelOps& ops = active_kernel_ops();
  const double* m = p == Pauli::kX   ? kPauliX
                    : p == Pauli::kY ? kPauliY
                                     : kPauliZ;
  const std::size_t stride = std::size_t{1} << q;
  // One iteration per stride pair: the work is the whole vector either way.
  const auto pairs = static_cast<SIdx>(v.size() / (2 * stride));
  parallel_for(pairs, parallel_threads(v.size()), [&](SIdx pair) {
    const std::size_t lo = static_cast<std::size_t>(pair) * 2 * stride;
    ops.gate1(v.re() + lo, v.im() + lo, v.re() + lo + stride,
              v.im() + lo + stride, stride, m);
  });
  v.invalidate_sums();
}

void phase_flip_index(SoaVector& v, Index t) {
  const Index marked[1] = {t};
  phase_flip_indices(v, marked);
}

void phase_flip_indices(SoaVector& v, std::span<const Index> marked_sorted) {
  double* re = v.re();
  double* im = v.im();
  const std::size_t bs = incremental_partition(v);
  for (std::size_t j = 0; j < marked_sorted.size(); ++j) {
    const Index m = marked_sorted[j];
    PQS_CHECK_MSG(m < v.size(), "marked index out of range");
    PQS_DCHECK(j == 0 || marked_sorted[j - 1] < m);
    // O(1) incremental cache update: flipping a costs the block sum 2a.
    if (bs != 0) {
      v.sum_re()[m / bs] -= 2.0 * re[m];
      v.sum_im()[m / bs] -= 2.0 * im[m];
    }
    re[m] = -re[m];
    im[m] = -im[m];
  }
}

void phase_rotate_indices(SoaVector& v, std::span<const Index> marked_sorted,
                          double phi) {
  const Amplitude factor = std::polar(1.0, phi);
  double* re = v.re();
  double* im = v.im();
  const std::size_t bs = incremental_partition(v);
  for (std::size_t j = 0; j < marked_sorted.size(); ++j) {
    const Index m = marked_sorted[j];
    PQS_CHECK_MSG(m < v.size(), "marked index out of range");
    PQS_DCHECK(j == 0 || marked_sorted[j - 1] < m);
    const Amplitude old{re[m], im[m]};
    const Amplitude next = factor * old;
    if (bs != 0) {
      v.sum_re()[m / bs] += next.real() - old.real();
      v.sum_im()[m / bs] += next.imag() - old.imag();
    }
    re[m] = next.real();
    im[m] = next.imag();
  }
}

void reflect_about_uniform(SoaVector& v) {
  reflect_blocks_about_uniform(v, v.size());
}

void reflect_blocks_about_uniform(SoaVector& v, std::size_t block_size) {
  PQS_CHECK(block_size > 0);
  PQS_CHECK_MSG(v.size() % block_size == 0,
                "block size must divide the state size");
  const KernelOps& ops = active_kernel_ops();
  std::vector<double> sr, si;
  block_sums(v, block_size, ops, sr, si);
  const double inv = 2.0 / static_cast<double>(block_size);
  for (double& s : sr) {
    s *= inv;  // twice the block mean
  }
  for (double& s : si) {
    s *= inv;
  }
  block_update(v, block_size, ops, /*is_reflect=*/true, sr, si);
}

void rotate_blocks_about_uniform(SoaVector& v, std::size_t block_size,
                                 double phi) {
  PQS_CHECK(block_size > 0);
  PQS_CHECK_MSG(v.size() % block_size == 0,
                "block size must divide the state size");
  const KernelOps& ops = active_kernel_ops();
  std::vector<double> sr, si;
  block_sums(v, block_size, ops, sr, si);
  const Amplitude factor =
      (std::polar(1.0, phi) - 1.0) / static_cast<double>(block_size);
  for (std::size_t b = 0; b < sr.size(); ++b) {
    const Amplitude add = factor * Amplitude{sr[b], si[b]};
    sr[b] = add.real();
    si[b] = add.imag();
  }
  block_update(v, block_size, ops, /*is_reflect=*/false, sr, si);
}

void grover_iterations(SoaVector& v, std::span<const Index> marked_sorted,
                       std::size_t block_size, std::uint64_t count) {
  PQS_CHECK(block_size > 0);
  PQS_CHECK_MSG(v.size() % block_size == 0,
                "block size must divide the state size");
  for (std::size_t j = 0; j < marked_sorted.size(); ++j) {
    PQS_CHECK_MSG(marked_sorted[j] < v.size(), "marked index out of range");
    PQS_CHECK_MSG(j == 0 || marked_sorted[j - 1] < marked_sorted[j],
                  "marked indices must be sorted and unique");
  }
  if (count == 0) {
    return;
  }
  const KernelOps& ops = active_kernel_ops();
  const std::size_t bs = block_size;
  const std::size_t nm = marked_sorted.size();
  const double inv = 2.0 / static_cast<double>(bs);
  const bool odd = count % 2 == 1;

  // After i iterations an unmarked amplitude a of block b reads
  // alpha_i + (-1)^i a, with alpha_i = t_i - alpha_{i-1} and t_i the block's
  // twice-mean in iteration i. A block without a mark keeps its sum, so its
  // alpha alternates between t and 0; only the blocks holding a mark (hot,
  // listed once each: the marks are sorted) iterate.
  std::vector<double> sr, si;
  block_sums(v, bs, ops, sr, si);
  const std::size_t nb = sr.size();
  // The alphas and the tracked marked amplitudes share one allocation, as
  // block_update's partials do: Service workers run many small jobs, and
  // every per-call allocation is one more chance to fragment a worker's
  // arena (see PlaneCache in qsim/soa.h).
  std::vector<double> track(2 * nb + 2 * nm);
  const std::span<double> al_re(track.data(), nb);
  const std::span<double> al_im(track.data() + nb, nb);
  const std::span<double> am_re(track.data() + 2 * nb, nm);
  const std::span<double> am_im(track.data() + 2 * nb + nm, nm);
  for (std::size_t b = 0; b < nb; ++b) {
    al_re[b] = odd ? sr[b] * inv : 0.0;
    al_im[b] = odd ? si[b] * inv : 0.0;
  }
  // A mark that starts its block (the marks are sorted) stands for the block.
  const auto first_in_block = [&](std::size_t j) {
    return j == 0 || marked_sorted[j - 1] / bs != marked_sorted[j] / bs;
  };
  for (std::size_t j = 0; j < nm; ++j) {
    if (first_in_block(j)) {
      al_re[marked_sorted[j] / bs] = 0.0;
      al_im[marked_sorted[j] / bs] = 0.0;
    }
    am_re[j] = v.re()[marked_sorted[j]];
    am_im[j] = v.im()[marked_sorted[j]];
  }
  // The serial recurrence, in the order the per-op kernels apply it: the
  // oracle's cache delta and flip, then the twice-means, then the marked
  // amplitudes' own reflection t - (-a).
  for (std::uint64_t i = 0; i < count; ++i) {
    for (std::size_t j = 0; j < nm; ++j) {
      const std::size_t b = marked_sorted[j] / bs;
      sr[b] -= 2.0 * am_re[j];
      si[b] -= 2.0 * am_im[j];
      am_re[j] = -am_re[j];
      am_im[j] = -am_im[j];
    }
    for (std::size_t j = 0; j < nm; ++j) {
      const std::size_t b = marked_sorted[j] / bs;
      if (first_in_block(j)) {
        al_re[b] = sr[b] * inv - al_re[b];
        al_im[b] = si[b] * inv - al_im[b];
      }
      am_re[j] = sr[b] * inv - am_re[j];
      am_im[j] = si[b] * inv - am_im[j];
    }
  }
  // One pass: a <- alpha - a for an odd count, a <- a + alpha for an even
  // one; the marked amplitudes take their tracked values.
  block_update(v, bs, ops, /*is_reflect=*/odd, al_re, al_im, marked_sorted,
               am_re, am_im);
}

void reflect_non_target_about_their_mean(SoaVector& v, Index t) {
  PQS_CHECK_MSG(t < v.size(), "target index out of range");
  PQS_CHECK_MSG(v.size() >= 2, "need at least two basis states");
  const Index marked[1] = {t};
  reflect_unmarked_about_their_mean(v, marked);
}

void reflect_unmarked_about_their_mean(SoaVector& v,
                                       std::span<const Index> marked_sorted) {
  PQS_CHECK_MSG(!marked_sorted.empty(), "need at least one marked index");
  PQS_CHECK_MSG(marked_sorted.size() < v.size() - 1,
                "need at least two unmarked states");
  const KernelOps& ops = active_kernel_ops();
  Amplitude sum = sum_all(v);
  std::vector<Amplitude> saved(marked_sorted.size());
  for (std::size_t j = 0; j < marked_sorted.size(); ++j) {
    const Index m = marked_sorted[j];
    PQS_CHECK_MSG(m < v.size(), "marked index out of range");
    if (j > 0) {
      PQS_CHECK_MSG(marked_sorted[j - 1] < m,
                    "marked indices must be sorted and unique");
    }
    saved[j] = v.get(m);
    sum -= saved[j];
  }
  const Amplitude twice_mean =
      2.0 * sum / static_cast<double>(v.size() - marked_sorted.size());
  const std::size_t nc = chunks_for(v.size());
  std::vector<double> pr(nc), pi(nc);
  parallel_for(static_cast<SIdx>(nc), parallel_threads(v.size()), [&](SIdx c) {
    const std::size_t off = static_cast<std::size_t>(c) * kChunk;
    const std::size_t clen = std::min(kChunk, v.size() - off);
    ops.reflect(v.re() + off, v.im() + off, clen, twice_mean.real(),
                twice_mean.imag(), &pr[static_cast<std::size_t>(c)],
                &pi[static_cast<std::size_t>(c)]);
  });
  for (std::size_t j = 0; j < marked_sorted.size(); ++j) {
    v.set(marked_sorted[j], saved[j]);
  }
  // The restored marked values broke the uniform a <- t - a treatment the
  // accumulation assumed; a once-per-run Step-3 is not worth a fix-up.
  v.invalidate_sums();
}

Amplitude sum_all(const SoaVector& v) {
  if (v.sum_block_size() != 0) {
    const std::size_t nb = v.sum_re().size();
    return Amplitude{combine_pairwise(v.sum_re().data(), nb),
                     combine_pairwise(v.sum_im().data(), nb)};
  }
  double sr = 0.0, si = 0.0;
  sum_range(v.re(), v.im(), 0, v.size(), active_kernel_ops(), &sr, &si);
  return Amplitude{sr, si};
}

void seed_uniform_sums(SoaVector& v) {
  const std::size_t n = v.size();
  if (n == 0) {
    return;
  }
  const KernelOps& ops = active_kernel_ops();
  double sr = 0.0, si = 0.0;
  const std::size_t nc = chunks_for(n);
  if (nc == 1) {
    ops.sum(v.re(), v.im(), n, &sr, &si);  // block_sums' one-chunk case
  } else {
    std::vector<double> pr(nc), pi(nc);
    ops.sum(v.re(), v.im(), kChunk, &pr[0], &pi[0]);
    std::fill(pr.begin() + 1, pr.end(), pr[0]);
    std::fill(pi.begin() + 1, pi.end(), pi[0]);
    const std::size_t tail = n - (nc - 1) * kChunk;
    if (tail != kChunk) {
      ops.sum(v.re() + (nc - 1) * kChunk, v.im() + (nc - 1) * kChunk, tail,
              &pr[nc - 1], &pi[nc - 1]);
    }
    sr = combine_pairwise(pr.data(), nc);
    si = combine_pairwise(pi.data(), nc);
  }
  v.mark_sums(n, /*seeded=*/true);
  v.sum_re()[0] = sr;
  v.sum_im()[0] = si;
}

double norm_squared_range(const SoaVector& v, std::size_t lo,
                          std::size_t len) {
  PQS_CHECK_MSG(lo + len <= v.size(), "range out of bounds");
  const KernelOps& ops = active_kernel_ops();
  const std::size_t nc = chunks_for(len);
  if (nc <= 1) {
    return ops.norm_sq(v.re() + lo, v.im() + lo, len);
  }
  std::vector<double> p(nc);
  parallel_for(static_cast<SIdx>(nc), parallel_threads(len), [&](SIdx c) {
    const std::size_t off = lo + static_cast<std::size_t>(c) * kChunk;
    const std::size_t clen = std::min(kChunk, lo + len - off);
    p[static_cast<std::size_t>(c)] =
        ops.norm_sq(v.re() + off, v.im() + off, clen);
  });
  return combine_pairwise(p.data(), nc);
}

double norm_squared(const SoaVector& v) {
  return norm_squared_range(v, 0, v.size());
}

std::vector<double> block_norms(const SoaVector& v, std::size_t block_size) {
  PQS_CHECK(block_size > 0);
  const KernelOps& ops = active_kernel_ops();
  const std::size_t nb = (v.size() + block_size - 1) / block_size;
  const std::size_t cpb = chunks_for(block_size);
  // Chunk partials per block, combined pairwise: the partition
  // norm_squared_range uses on each block.
  std::vector<double> parts(nb * cpb, 0.0);
  parallel_for(static_cast<SIdx>(nb * cpb), parallel_threads(v.size()),
               [&](SIdx t) {
    const auto ut = static_cast<std::size_t>(t);
    const std::size_t b = ut / cpb;
    const std::size_t off = b * block_size + (ut % cpb) * kChunk;
    const std::size_t end = std::min((b + 1) * block_size, v.size());
    if (off < end) {
      parts[ut] = ops.norm_sq(v.re() + off, v.im() + off,
                              std::min(kChunk, end - off));
    }
  });
  std::vector<double> norms(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    norms[b] = combine_pairwise(parts.data() + b * cpb, cpb);
  }
  return norms;
}

Index find_mass_offset(const SoaVector& v, std::size_t lo, std::size_t len,
                       double offset) {
  PQS_DCHECK(lo + len <= v.size());
  const double* re = v.re();
  const double* im = v.im();
  std::size_t last = lo;
  for (std::size_t i = lo; i < lo + len; ++i) {
    const double w = re[i] * re[i] + im[i] * im[i];
    if (w > 0.0) {
      last = i;
      offset -= w;
      if (offset < 0.0) {
        return static_cast<Index>(i);
      }
    }
  }
  return static_cast<Index>(last);
}

}  // namespace pqs::qsim::kernels
