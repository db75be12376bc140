// The algorithm registry: every search driver in the repository, invocable
// by name through one interface.
//
// Each module under src/grover, src/partial, src/reduction, src/zalka and
// src/classical keeps its typed low-level API; a thin adapter (one file per
// driver under src/api/algorithms/) maps SearchSpec onto that API and the
// module's result struct onto SearchReport. The registry owns the adapters
// and resolves names; pqs::Engine consults it on every run. Registration is
// open — downstream code can register custom algorithms next to the
// built-ins and invoke them through the same Engine.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/planner.h"
#include "api/search_spec.h"
#include "common/random.h"
#include "qsim/run_control.h"

namespace pqs {

/// Everything an adapter may use while running one request: the validated
/// spec, its marked set (materialized ONCE by the Engine — a predicate
/// spec's scan happens here, never again downstream), the engine's shared
/// plan cache, the request's RNG (seeded from spec.seed by the Engine, so a
/// run is reproducible from the spec alone), and the optional cancel /
/// progress handle of the request.
struct RunContext {
  const SearchSpec& spec;
  const std::vector<qsim::Index>& marked;  ///< sorted, unique, validated
  const Planner& planner;
  Rng& rng;
  /// Cancel + progress handle, or nullptr for an untracked run. Adapters
  /// checkpoint() between stages and hand it to their shot loops
  /// (BatchOptions::control), so cancellation lands mid-sweep, not after.
  /// Shot loops take no thread count: they fan over the running thread's
  /// budget (qsim::thread_budget()).
  qsim::RunControl* control = nullptr;

  /// Throws CancelledError iff the request was cancelled. Call between
  /// expensive stages (after planning, before evolution, before sampling).
  void checkpoint() const { qsim::checkpoint(control); }
};

/// One registered algorithm. Adapters are stateless (all run state lives in
/// the context), which is what makes Engine::run safe to call concurrently.
class Algorithm {
 public:
  virtual ~Algorithm() = default;

  /// The registry name ("grover", "grk", ...).
  virtual std::string_view name() const = 0;
  /// One-line description for CLIs and --help listings.
  virtual std::string_view summary() const = 0;
  /// Whether the algorithm can honor spec.noise (only "noisy" does; the
  /// Engine rejects noisy specs routed anywhere else, loudly).
  virtual bool supports_noise() const { return false; }

  /// Execute the request. The Engine has already validated the spec and
  /// fills the timing / resolved-name fields of the report afterwards.
  virtual SearchReport run(RunContext& ctx) const = 0;
};

using AlgorithmFactory = std::function<std::unique_ptr<Algorithm>()>;

/// Name -> algorithm map. Mutate-then-share: register everything up front,
/// then hand the registry to an Engine; lookups are const and lock-free.
/// That immutability is the concurrency invariant — there is deliberately
/// no mutex here to annotate (common/thread_annotations.h), and the
/// thread-safety build verifies no locking sneaks in: an Engine's registry
/// is only reachable const, so concurrent Engine::run calls cannot race.
class Registry {
 public:
  /// Register `factory`'s algorithm under `name` (the factory runs once,
  /// here). Checked: names are unique and non-empty, and "auto" is
  /// reserved for the Engine's planner.
  void register_algorithm(const std::string& name, AlgorithmFactory factory);

  /// Lookup; throws CheckFailure listing the known names on a miss.
  const Algorithm& find(std::string_view name) const;
  /// All registered names, sorted.
  std::vector<std::string> names() const;
  std::size_t size() const { return algorithms_.size(); }

  /// A registry pre-loaded with every built-in driver: grover, bbht, exact,
  /// ampamp, grk, multi, certainty, interleave, twelve, noisy, reduction,
  /// zalka, classical.
  static Registry with_builtin_algorithms();

 private:
  std::map<std::string, std::unique_ptr<Algorithm>, std::less<>> algorithms_;
};

}  // namespace pqs
