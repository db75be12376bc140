// SoA kernel composition layer: chunking, threading (qsim/parallel.h), the
// block-sum cache, and ISA dispatch. The arithmetic itself lives in the
// per-tier segment primitives (qsim/kernels_scalar.cpp / kernels_avx2.cpp /
// kernels_avx512.cpp).
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
// drift accumulation). grover_iterations refreshes it once per sweep the
// same way, so its recurrence's rounding never outlives a sweep of
// kSweepDepth iterations. The scalar tier maintains the cache but never
// READS it: it stays the two-pass reference the equivalence tests trust,
// and DenseBackend runs it per op rather than through grover_iterations.
#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "qsim/gates2.h"
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

/// Per-block sums for partition `bs`, from the cache when the active tier
/// may use it, recomputed otherwise. Writes size()/bs entries.
void block_sums(const SoaVector& v, std::size_t bs, const KernelOps& ops,
                bool may_use_cache, std::vector<double>& sr,
                std::vector<double>& si) {
  const std::size_t nb = v.size() / bs;
  sr.resize(nb);
  si.resize(nb);
  if (may_use_cache && v.sums_valid(bs)) {
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

/// Shared update pass of the two block kernels: per block apply either
/// a <- t_b - a (reflect) or a <- a + t_b (rotate add), accumulating the
/// stored values, then refresh the sum cache from the accumulation.
void block_update(SoaVector& v, std::size_t bs, const KernelOps& ops,
                  bool is_reflect, const std::vector<double>& tr,
                  const std::vector<double>& ti) {
  const std::size_t nb = v.size() / bs;
  const std::size_t cpb = chunks_for(bs);
  std::vector<double> pr(nb * cpb), pi(nb * cpb);
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
  v.mark_sums(bs);
  for (std::size_t b = 0; b < nb; ++b) {
    v.sum_re()[b] = combine_pairwise(pr.data() + b * cpb, cpb);
    v.sum_im()[b] = combine_pairwise(pi.data() + b * cpb, cpb);
  }
}

void pack_gate(const Gate2& g, double m[8]) {
  m[0] = g.m[0][0].real();
  m[1] = g.m[0][0].imag();
  m[2] = g.m[0][1].real();
  m[3] = g.m[0][1].imag();
  m[4] = g.m[1][0].real();
  m[5] = g.m[1][0].imag();
  m[6] = g.m[1][1].real();
  m[7] = g.m[1][1].imag();
}

}  // namespace

void apply_gate1(SoaVector& v, unsigned n_qubits, unsigned q, const Gate2& g) {
  PQS_CHECK_MSG(v.size() == pow2(n_qubits),
                "state size does not match qubit count");
  PQS_CHECK_MSG(q < n_qubits, "qubit index out of range");
  const KernelOps& ops = active_kernel_ops();
  double m[8];
  pack_gate(g, m);
  const std::size_t stride = std::size_t{1} << q;
  // One iteration per stride pair: the work is the whole vector either way.
  const auto pairs = static_cast<SIdx>(v.size() / (2 * stride));
  parallel_for(pairs, parallel_threads(v.size()), [&](SIdx p) {
    const std::size_t lo = static_cast<std::size_t>(p) * 2 * stride;
    ops.gate1(v.re() + lo, v.im() + lo, v.re() + lo + stride,
              v.im() + lo + stride, stride, m);
  });
  v.invalidate_sums();
}

void apply_controlled_gate1(SoaVector& v, unsigned n_qubits,
                            std::uint64_t control_mask, unsigned q,
                            const Gate2& g) {
  PQS_CHECK_MSG(v.size() == pow2(n_qubits),
                "state size does not match qubit count");
  PQS_CHECK_MSG(q < n_qubits, "qubit index out of range");
  PQS_CHECK_MSG((control_mask & (std::uint64_t{1} << q)) == 0,
                "target qubit cannot be its own control");
  PQS_CHECK_MSG(control_mask < v.size(), "control mask out of range");
  const std::uint64_t stride = std::uint64_t{1} << q;
  const auto n = static_cast<SIdx>(v.size());
  const Amplitude m00 = g.m[0][0], m01 = g.m[0][1], m10 = g.m[1][0],
                  m11 = g.m[1][1];
  double* re = v.re();
  double* im = v.im();
  const auto pairs = n / (static_cast<SIdx>(stride) * 2);
  parallel_for(pairs, parallel_threads(v.size()), [&](SIdx p) {
    const SIdx base = p * static_cast<SIdx>(stride) * 2;
    for (SIdx off = 0; off < static_cast<SIdx>(stride); ++off) {
      const auto i0 = static_cast<std::uint64_t>(base + off);
      if ((i0 & control_mask) != control_mask) {
        continue;
      }
      const auto i1 = i0 + stride;
      const Amplitude a0{re[i0], im[i0]};
      const Amplitude a1{re[i1], im[i1]};
      const Amplitude b0 = m00 * a0 + m01 * a1;
      const Amplitude b1 = m10 * a0 + m11 * a1;
      re[i0] = b0.real();
      im[i0] = b0.imag();
      re[i1] = b1.real();
      im[i1] = b1.imag();
    }
  });
  v.invalidate_sums();
}

void apply_gate2(SoaVector& v, unsigned n_qubits, unsigned q_high,
                 unsigned q_low, const Gate4& g) {
  PQS_CHECK_MSG(v.size() == pow2(n_qubits),
                "state size does not match qubit count");
  PQS_CHECK_MSG(q_high < n_qubits && q_low < n_qubits,
                "qubit index out of range");
  PQS_CHECK_MSG(q_high != q_low, "two-qubit gate needs distinct qubits");
  const std::uint64_t bit_h = std::uint64_t{1} << q_high;
  const std::uint64_t bit_l = std::uint64_t{1} << q_low;
  const std::uint64_t below_lo = std::min(bit_h, bit_l) - 1;
  const std::uint64_t below_hi = std::max(bit_h, bit_l) - 1;
  double* re = v.re();
  double* im = v.im();
  // One iteration per four-tuple: spreading the tuple number around the two
  // qubit positions gives its |00> member.
  parallel_for(static_cast<SIdx>(v.size() / 4), parallel_threads(v.size()),
               [&](SIdx t) {
    auto x = static_cast<std::uint64_t>(t);
    x = (x & below_lo) | ((x & ~below_lo) << 1);
    x = (x & below_hi) | ((x & ~below_hi) << 1);
    const std::uint64_t idx[4] = {x, x | bit_l, x | bit_h, x | bit_h | bit_l};
    Amplitude a[4];
    for (std::size_t j = 0; j < 4; ++j) {
      a[j] = Amplitude{re[idx[j]], im[idx[j]]};
    }
    for (std::size_t r = 0; r < 4; ++r) {
      const Amplitude b = g.m[r][0] * a[0] + g.m[r][1] * a[1] +
                          g.m[r][2] * a[2] + g.m[r][3] * a[3];
      re[idx[r]] = b.real();
      im[idx[r]] = b.imag();
    }
  });
  v.invalidate_sums();
}

void phase_flip_index(SoaVector& v, Index t) {
  const Index marked[1] = {t};
  phase_flip_indices(v, marked);
}

void phase_rotate_index(SoaVector& v, Index t, double phi) {
  const Index marked[1] = {t};
  phase_rotate_indices(v, marked, phi);
}

void phase_flip_indices(SoaVector& v, std::span<const Index> marked_sorted) {
  double* re = v.re();
  double* im = v.im();
  const std::size_t bs = v.sum_block_size();
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
  const std::size_t bs = v.sum_block_size();
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

void phase_flip_mask_all_ones(SoaVector& v, std::uint64_t mask) {
  PQS_CHECK_MSG(mask < v.size(), "mask out of range");
  double* re = v.re();
  double* im = v.im();
  parallel_for(static_cast<SIdx>(v.size()), parallel_threads(v.size()),
               [&](SIdx i) {
    const auto u = static_cast<std::uint64_t>(i);
    if ((u & mask) == mask) {
      re[u] = -re[u];
      im[u] = -im[u];
    }
  });
  v.invalidate_sums();
}

void reflect_about_uniform(SoaVector& v) {
  reflect_blocks_about_uniform(v, v.size());
}

void reflect_blocks_about_uniform(SoaVector& v, std::size_t block_size) {
  PQS_CHECK(block_size > 0);
  PQS_CHECK_MSG(v.size() % block_size == 0,
                "block size must divide the state size");
  const Isa isa = active_isa();
  const KernelOps& ops = kernel_ops(isa);
  std::vector<double> sr, si;
  block_sums(v, block_size, ops, /*may_use_cache=*/isa != Isa::kScalar, sr,
             si);
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
  const Isa isa = active_isa();
  const KernelOps& ops = kernel_ops(isa);
  std::vector<double> sr, si;
  block_sums(v, block_size, ops, /*may_use_cache=*/isa != Isa::kScalar, sr,
             si);
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
  const Isa isa = active_isa();
  const KernelOps& ops = kernel_ops(isa);
  const std::size_t bs = block_size;
  const std::size_t nb = v.size() / bs;
  const std::size_t cpb = chunks_for(bs);
  const std::size_t nm = marked_sorted.size();
  const double inv = 2.0 / static_cast<double>(bs);

  // One table row of per-iteration twice-means per block that holds a
  // marked address. Every other block is cold: a sweep keeps its sum, so
  // its twice-mean is one constant.
  constexpr std::size_t kCold = ~std::size_t{0};
  std::vector<std::size_t> hot_block;
  std::vector<std::size_t> row_of(nb, kCold);
  std::vector<std::size_t> marked_row(nm);
  for (std::size_t j = 0; j < nm; ++j) {
    const std::size_t b = marked_sorted[j] / bs;
    if (row_of[b] == kCold) {
      row_of[b] = hot_block.size();
      hot_block.push_back(b);
    }
    marked_row[j] = row_of[b];
  }
  // The table, the tracked marked amplitudes and the chunk partials share
  // one allocation: separate per-call vectors fragmented the heaps of
  // Service workers that run many small jobs (peak RSS rose about 10%).
  const std::size_t tab_len = hot_block.size() * kSweepDepth;
  std::vector<double> scratch(2 * tab_len + 2 * nm + 2 * nb * cpb);
  double* const tab_re = scratch.data();
  double* const tab_im = tab_re + tab_len;
  double* const am_re = tab_im + tab_len;
  double* const am_im = am_re + nm;
  double* const pr = am_im + nm;
  double* const pi = pr + nb * cpb;
  std::vector<double> sr, si;
  const unsigned threads = parallel_threads(v.size());

  for (std::uint64_t done = 0; done < count;) {
    const auto depth = static_cast<std::size_t>(
        std::min<std::uint64_t>(kSweepDepth, count - done));
    block_sums(v, bs, ops, /*may_use_cache=*/isa != Isa::kScalar, sr, si);
    // The serial recurrence, in the order the per-op kernels apply it: the
    // oracle's cache delta and flip, then the twice-means, then the marked
    // amplitudes' own reflection t - (-a).
    for (std::size_t j = 0; j < nm; ++j) {
      am_re[j] = v.re()[marked_sorted[j]];
      am_im[j] = v.im()[marked_sorted[j]];
    }
    for (std::size_t i = 0; i < depth; ++i) {
      for (std::size_t j = 0; j < nm; ++j) {
        const std::size_t b = marked_sorted[j] / bs;
        sr[b] -= 2.0 * am_re[j];
        si[b] -= 2.0 * am_im[j];
        am_re[j] = -am_re[j];
        am_im[j] = -am_im[j];
      }
      for (std::size_t h = 0; h < hot_block.size(); ++h) {
        tab_re[h * kSweepDepth + i] = sr[hot_block[h]] * inv;
        tab_im[h * kSweepDepth + i] = si[hot_block[h]] * inv;
      }
      for (std::size_t j = 0; j < nm; ++j) {
        const std::size_t at = marked_row[j] * kSweepDepth + i;
        am_re[j] = tab_re[at] - am_re[j];
        am_im[j] = tab_im[at] - am_im[j];
      }
    }
    // Every element takes all `depth` reflections; the marked ones are
    // overwritten with their tracked values below.
    parallel_for(static_cast<SIdx>(nb * cpb), threads, [&](SIdx t) {
      const auto ut = static_cast<std::size_t>(t);
      const std::size_t b = ut / cpb;
      const std::size_t off = b * bs + (ut % cpb) * kChunk;
      const std::size_t clen = std::min(kChunk, (b + 1) * bs - off);
      double cold_re[kSweepDepth], cold_im[kSweepDepth];
      const double* t_re = cold_re;
      const double* t_im = cold_im;
      if (row_of[b] == kCold) {
        std::fill_n(cold_re, depth, sr[b] * inv);
        std::fill_n(cold_im, depth, si[b] * inv);
      } else {
        t_re = tab_re + row_of[b] * kSweepDepth;
        t_im = tab_im + row_of[b] * kSweepDepth;
      }
      ops.reflect_series(v.re() + off, v.im() + off, clen, t_re, t_im, depth,
                         &pr[ut], &pi[ut]);
    });
    for (std::size_t j = 0; j < nm; ++j) {
      const Index m = marked_sorted[j];
      const std::size_t b = m / bs;
      const std::size_t ut = b * cpb + (m - b * bs) / kChunk;
      pr[ut] += am_re[j] - v.re()[m];
      pi[ut] += am_im[j] - v.im()[m];
      v.re()[m] = am_re[j];
      v.im()[m] = am_im[j];
    }
    v.mark_sums(bs);
    for (std::size_t b = 0; b < nb; ++b) {
      v.sum_re()[b] = combine_pairwise(pr + b * cpb, cpb);
      v.sum_im()[b] = combine_pairwise(pi + b * cpb, cpb);
    }
    done += depth;
  }
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
  const Isa isa = active_isa();
  if (isa != Isa::kScalar && v.sum_block_size() != 0) {
    const std::size_t nb = v.sum_re().size();
    return Amplitude{combine_pairwise(v.sum_re().data(), nb),
                     combine_pairwise(v.sum_im().data(), nb)};
  }
  double sr = 0.0, si = 0.0;
  sum_range(v.re(), v.im(), 0, v.size(), kernel_ops(isa), &sr, &si);
  return Amplitude{sr, si};
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

Amplitude inner_product(const SoaVector& a, const SoaVector& b) {
  PQS_CHECK_MSG(a.size() == b.size(), "dimension mismatch");
  const KernelOps& ops = active_kernel_ops();
  const std::size_t nc = chunks_for(a.size());
  if (nc <= 1) {
    double sr = 0.0, si = 0.0;
    ops.inner(a.re(), a.im(), b.re(), b.im(), a.size(), &sr, &si);
    return Amplitude{sr, si};
  }
  std::vector<double> pr(nc), pi(nc);
  parallel_for(static_cast<SIdx>(nc), parallel_threads(a.size()), [&](SIdx c) {
    const auto uc = static_cast<std::size_t>(c);
    const std::size_t off = uc * kChunk;
    const std::size_t clen = std::min(kChunk, a.size() - off);
    ops.inner(a.re() + off, a.im() + off, b.re() + off, b.im() + off, clen,
              &pr[uc], &pi[uc]);
  });
  return Amplitude{combine_pairwise(pr.data(), nc),
                   combine_pairwise(pi.data(), nc)};
}

void scale(SoaVector& v, Amplitude s) {
  const KernelOps& ops = active_kernel_ops();
  const std::size_t nc = chunks_for(v.size());
  parallel_for(static_cast<SIdx>(nc), parallel_threads(v.size()), [&](SIdx c) {
    const std::size_t off = static_cast<std::size_t>(c) * kChunk;
    const std::size_t clen = std::min(kChunk, v.size() - off);
    ops.scale(v.re() + off, v.im() + off, clen, s.real(), s.imag());
  });
  // A global scale maps every block sum linearly, so keep the cache alive by
  // rescaling it. In floating point s*sum(a) and sum(s*a) can differ by a few
  // ulps, far below the 1e-10 agreement bar; reflect() refreshes the sums from
  // stored data when exact refresh semantics matter.
  if (v.sum_block_size() != 0) {
    for (std::size_t b = 0; b < v.sum_re().size(); ++b) {
      const Amplitude next = s * Amplitude{v.sum_re()[b], v.sum_im()[b]};
      v.sum_re()[b] = next.real();
      v.sum_im()[b] = next.imag();
    }
  }
}

}  // namespace pqs::qsim::kernels
