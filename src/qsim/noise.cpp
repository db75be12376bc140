#include "qsim/noise.h"

#include <string>

#include "common/check.h"

namespace pqs::qsim {

void NoiseModel::validate() const {
  PQS_CHECK_MSG(valid(),
                "noise probability must lie in [0, 1], got " +
                    std::to_string(probability));
}

Pauli sample_pauli_kind(NoiseKind kind, Rng& rng) {
  switch (kind) {
    case NoiseKind::kDepolarizing: {
      const auto which = rng.uniform_below(3);
      return which == 0 ? Pauli::kX : which == 1 ? Pauli::kY : Pauli::kZ;
    }
    case NoiseKind::kDephasing:
      return Pauli::kZ;
    case NoiseKind::kBitFlip:
      return Pauli::kX;
    case NoiseKind::kNone:
      break;
  }
  throw CheckFailure("sample_pauli: channel has no Pauli (NoiseKind::kNone)");
}

const char* noise_kind_name(NoiseKind kind) {
  switch (kind) {
    case NoiseKind::kNone:
      return "none";
    case NoiseKind::kDepolarizing:
      return "depolarizing";
    case NoiseKind::kDephasing:
      return "dephasing";
    case NoiseKind::kBitFlip:
      return "bit-flip";
  }
  throw CheckFailure("noise_kind_name: invalid NoiseKind value");
}

NoiseKind parse_noise_kind(std::string_view name) {
  if (name == "none") {
    return NoiseKind::kNone;
  }
  if (name == "depolarizing") {
    return NoiseKind::kDepolarizing;
  }
  if (name == "dephasing") {
    return NoiseKind::kDephasing;
  }
  if (name == "bitflip" || name == "bit-flip") {
    return NoiseKind::kBitFlip;
  }
  throw CheckFailure("unknown noise channel '" + std::string(name) +
                     "' (expected none, depolarizing, dephasing, or bitflip)");
}

}  // namespace pqs::qsim
