// The one --backend flag of every CLI: its name, default and help text live
// here, so every bench, example and api::parse_search_spec spells the engine
// choice identically and typos fail loudly through Cli::finish().
//
// Only binaries that pick an engine declare it: passing --backend to a
// binary that never simulates is an unknown-flag error instead of a silently
// ignored knob (the bug class this layer exists to prevent).
#pragma once

#include "common/cli.h"
#include "qsim/backend.h"

namespace pqs::qsim {

/// Declare and parse --backend (auto | dense | symmetry). Call before
/// cli.finish().
BackendKind parse_engine_flags(Cli& cli);

}  // namespace pqs::qsim
