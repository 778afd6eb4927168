// Per-compile and cumulative pipeline statistics.
//
// Kept free of heavy includes so apps and benches can thread a
// CompileStats through RunResult without pulling the whole driver in.
// One PassStats row per pipeline pass; `executions` counts actual pass
// runs (per call site for PlanGen, per module for the analyses),
// `cache_hits`/`cache_misses` count lookups against the pass manager's
// fingerprint-keyed caches, and `wall_ns` accumulates measured real time
// of the executions.  Counters are deterministic for a fixed compile
// sequence; only `wall_ns` varies run to run.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "support/field_list.hpp"

namespace rmiopt::driver {

enum class PassId : std::uint8_t {
  Verify,         // structural IR checks (ir::verify)
  Heap,           // §2 interprocedural points-to fixpoint
  Cycle,          // §3.2 conservative cycle detection
  PreciseCycles,  // §7 construction-order refinement of Cycle
  Escape,         // §3.3 RMI escape analysis
  PlanGen,        // §3.1 per-call-site marshal plan generation
};
inline constexpr std::size_t kPassCount = 6;

constexpr std::string_view to_string(PassId p) {
  switch (p) {
    case PassId::Verify:
      return "verify";
    case PassId::Heap:
      return "heap";
    case PassId::Cycle:
      return "cycle";
    case PassId::PreciseCycles:
      return "precise-cycles";
    case PassId::Escape:
      return "escape";
    case PassId::PlanGen:
      return "plangen";
  }
  return "?";
}

// Every PassStats field, declared once (support/field_list.hpp).
#define RMIOPT_PASS_STATS_FIELDS(X) \
  X(Counter, executions)            \
  X(Counter, cache_hits)            \
  X(Counter, cache_misses)          \
  X(std::int64_t, wall_ns)

struct PassStats {
  RMIOPT_PASS_STATS_FIELDS(RMIOPT_DECLARE_FIELD)

  PassStats& operator+=(const PassStats& o) {
    RMIOPT_PASS_STATS_FIELDS(RMIOPT_ADD_FIELD)
    return *this;
  }
};

struct CompileStats {
  std::array<PassStats, kPassCount> passes;
  std::uint64_t fixpoint_iterations = 0;  // heap-analysis iterations run

  PassStats& pass(PassId id) { return passes[static_cast<std::size_t>(id)]; }
  const PassStats& pass(PassId id) const {
    return passes[static_cast<std::size_t>(id)];
  }

  std::uint64_t total_executions() const {
    std::uint64_t n = 0;
    for (const PassStats& p : passes) n += p.executions;
    return n;
  }
  std::uint64_t total_hits() const {
    std::uint64_t n = 0;
    for (const PassStats& p : passes) n += p.cache_hits;
    return n;
  }
  std::uint64_t total_misses() const {
    std::uint64_t n = 0;
    for (const PassStats& p : passes) n += p.cache_misses;
    return n;
  }

  CompileStats& operator+=(const CompileStats& o) {
    for (std::size_t i = 0; i < kPassCount; ++i) passes[i] += o.passes[i];
    fixpoint_iterations += o.fixpoint_iterations;
    return *this;
  }
};

}  // namespace rmiopt::driver
