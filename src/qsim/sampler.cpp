#include "qsim/sampler.h"

#include <algorithm>

#include "common/check.h"
#include "qsim/kernels.h"
#include "qsim/parallel.h"

namespace pqs::qsim {

DenseSampler DenseSampler::blocks(const SoaVector& v, std::size_t block_size) {
  PQS_CHECK_MSG(block_size > 0 && v.size() % block_size == 0,
                "block size must divide the state size");
  return DenseSampler(nullptr,
                      CumulativeTable(kernels::block_norms(v, block_size)));
}

DenseSampler DenseSampler::indices(const SoaVector& v) {
  return DenseSampler(&v, CumulativeTable(kernels::block_norms(v, kChunk)));
}

Index DenseSampler::pick(double u) const {
  const CumulativeTable::Hit hit = table_.locate(u);
  if (walk_ == nullptr) {
    return static_cast<Index>(hit.index);
  }
  const std::size_t lo = hit.index * kChunk;
  return kernels::find_mass_offset(*walk_, lo,
                                   std::min(kChunk, walk_->size() - lo),
                                   hit.offset);
}

}  // namespace pqs::qsim
