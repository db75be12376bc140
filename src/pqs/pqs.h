// Umbrella header: the whole public API of the partial-quantum-search
// library. Include this (and link pqs::pqs) to get everything; individual
// subsystem headers remain the fine-grained option.
#pragma once

// The facade: declarative SearchSpec/SearchReport served by pqs::Engine
// over the algorithm registry and the plan cache.
#include "api/api.h"

// The service layer: asynchronous cancellable jobs, request coalescing,
// and the JSONL wire format (pqs_serve).
#include "service/flags.h"
#include "service/service.h"

// Observability: the unified metrics registry and request tracing.
#include "obs/metrics.h"
#include "obs/trace.h"

// Infrastructure.
#include "common/check.h"
#include "common/cli.h"
#include "common/math.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timing.h"

// The quantum simulator substrate.
#include "qsim/backend.h"
#include "qsim/batch.h"
#include "qsim/circuit.h"
#include "qsim/gates.h"
#include "qsim/gates2.h"
#include "qsim/kernels.h"
#include "qsim/noise.h"
#include "qsim/types.h"

// The database-oracle model.
#include "oracle/blocks.h"
#include "oracle/database.h"
#include "oracle/marked_set.h"
#include "oracle/merit_list.h"

// Standard quantum search and its relatives.
#include "grover/amplitude_amplification.h"
#include "grover/bbht.h"
#include "grover/exact.h"
#include "grover/grover.h"

// Partial search: the paper's contribution and its extensions.
#include "partial/analytic.h"
#include "partial/bounds.h"
#include "partial/certainty.h"
#include "partial/grk.h"
#include "partial/interleave.h"
#include "partial/multi.h"
#include "partial/noisy.h"
#include "partial/optimizer.h"
#include "partial/phase_match.h"
#include "partial/twelve.h"

// Baselines and lower-bound machinery.
#include "classical/adversary.h"
#include "classical/montecarlo.h"
#include "classical/search.h"
#include "reduction/reduction.h"
#include "zalka/zalka.h"
