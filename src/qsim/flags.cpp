#include "qsim/flags.h"

namespace pqs::qsim {

BackendKind parse_engine_flags(Cli& cli) {
  return parse_backend_kind(cli.get_string(
      "backend", "auto", "simulation engine: auto | dense | symmetry"));
}

}  // namespace pqs::qsim
