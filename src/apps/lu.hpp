// Distributed LU factorization (paper §5.2, SPLASH-2 style).
//
// A dense n×n matrix is factored in place (no pivoting, as in SPLASH-2
// LU).  Rows are distributed cyclically over the machines; at step k the
// owner of row k pushes the pivot row to every peer (the paper's "updates
// are flushed"), everyone updates their rows below k, and a barrier
// (deferred-reply RMI on machine 0) closes the step.  At the end machine 0
// fetches every remotely-owned row (exercising return-value reuse) and the
// result is verified against L·U = A.
#pragma once

#include "apps/run_env.hpp"
#include "apps/run_result.hpp"
#include "codegen/opt_level.hpp"

namespace rmiopt::apps {

struct LuConfig {
  std::size_t n = 64;          // matrix dimension (paper: 1024)
  std::size_t machines = 2;    // paper: 2 CPUs
  std::uint64_t seed = 42;     // matrix generator
  // Virtual cost of one multiply-add of the update loop (P-III-era,
  // non-vectorized).  Charged to the worker's machine clock so compute
  // and communication trade off realistically in the makespan.
  double flop_pair_ns = 2.0;
  RunEnv env;
};

// RunResult::check is the maximum |L·U - A| residual entry (machine 0's
// reassembled matrix); a correct run keeps it tiny relative to ‖A‖.
RunResult run_lu(codegen::OptLevel level, const LuConfig& cfg = {});

}  // namespace rmiopt::apps
