#include "api/flags.h"

#include "common/check.h"
#include "common/math.h"
#include "qsim/flags.h"

namespace pqs::api {

SearchSpec parse_search_spec(Cli& cli, const SpecFlagSet& flags,
                             const std::string& default_algo,
                             unsigned default_qubits, unsigned default_kbits,
                             std::uint64_t default_target) {
  SearchSpec spec;
  if (flags.algo) {
    spec.algorithm = cli.get_string(
        "algo", default_algo,
        "algorithm name (grover | grk | certainty | ... ) or auto");
  } else {
    spec.algorithm = default_algo;
  }
  if (flags.problem) {
    const auto n = static_cast<unsigned>(cli.get_int(
        "qubits", default_qubits, "address bits (N = 2^qubits items)"));
    const auto k = static_cast<unsigned>(cli.get_int(
        "kbits", default_kbits, "wanted bits (K = 2^kbits blocks)"));
    PQS_CHECK_MSG(n >= 1 && n <= 62, "need 1 <= qubits <= 62");
    PQS_CHECK_MSG(k <= n, "need kbits <= qubits");
    spec.n_items = pow2(n);
    spec.n_blocks = pow2(k);
    std::uint64_t target = default_target;
    if (flags.target) {
      target = static_cast<std::uint64_t>(cli.get_int(
          "target", static_cast<std::int64_t>(default_target),
          "marked address (reduced mod N)"));
    }
    spec.marked = {target % spec.n_items};
  } else {
    spec.n_items = pow2(default_qubits);
    spec.n_blocks = pow2(default_kbits);
    spec.marked = {default_target % spec.n_items};
  }
  spec.backend = qsim::parse_engine_flags(cli);
  spec.seed = static_cast<std::uint64_t>(cli.get_int(
      "seed", static_cast<std::int64_t>(flags.seed_default),
      "seed of the run's RNG stream"));
  if (flags.shots) {
    spec.shots = static_cast<std::uint64_t>(cli.get_int(
        "shots", static_cast<std::int64_t>(flags.shots_default),
        "measurement shots / Monte-Carlo trials"));
  }
  if (flags.noise) {
    spec.noise.kind = qsim::parse_noise_kind(cli.get_string(
        "noise", flags.noise_default,
        "noise channel: none | depolarizing | dephasing | bitflip"));
    spec.noise.probability = cli.get_double(
        "noise-p", 0.0, "per-qubit error rate after each oracle call");
    spec.noise.validate();
    PQS_CHECK_MSG(spec.noise.kind != qsim::NoiseKind::kNone ||
                      spec.noise.probability == 0.0,
                  "--noise none contradicts a nonzero --noise-p (pick a "
                  "channel, or drop --noise-p)");
  }
  if (flags.schedule) {
    const auto l1 = cli.get_int("l1", -1, "Step-1 iteration override");
    const auto l2 = cli.get_int("l2", -1, "Step-2 iteration override");
    if (l1 >= 0) {
      spec.l1 = static_cast<std::uint64_t>(l1);
    }
    if (l2 >= 0) {
      spec.l2 = static_cast<std::uint64_t>(l2);
    }
    spec.min_success = cli.get_double(
        "min-success", 0.0,
        "success floor for planned schedules (0 = per-algorithm default)");
  }
  return spec;
}

}  // namespace pqs::api
