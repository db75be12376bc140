// Shim for the one user, perfbench/pqs_bench.cpp's `qsim.*` probe (three
// sweeps of a partial-search iteration); library code runs dense states on
// DenseBackend (qsim/backend.h). Delete it once that probe times DenseBackend.
#pragma once

#include <cmath>

#include "common/check.h"
#include "common/math.h"
#include "qsim/kernels.h"
#include "qsim/soa.h"
#include "qsim/types.h"

namespace pqs::qsim {

class StateVector {
 public:
  static StateVector uniform(unsigned n_qubits) {
    PQS_CHECK_MSG(n_qubits >= 1 && n_qubits <= kMaxQubits,
                  "qubit count out of supported range");
    const double amp = 1.0 / std::sqrt(static_cast<double>(pow2(n_qubits)));
    StateVector sv;
    sv.soa_ = SoaVector(pow2(n_qubits));
    sv.soa_.fill(Amplitude{amp, 0.0});
    return sv;
  }
  void phase_flip(Index t) {
    PQS_CHECK_MSG(t < soa_.size(), "target index out of range");
    kernels::phase_flip_index(soa_, t);
  }
  void reflect_about_uniform() { kernels::reflect_about_uniform(soa_); }
  void reflect_blocks_about_uniform(unsigned k) {
    PQS_CHECK_MSG(pow2(k) <= soa_.size(), "k exceeds qubit count");
    kernels::reflect_blocks_about_uniform(soa_, soa_.size() >> k);
  }
 private:
  SoaVector soa_;
};

}  // namespace pqs::qsim
