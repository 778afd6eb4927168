// The paper's two microbenchmarks (§5.1):
//  * LinkedList transmission — Figure 14, Table 1,
//  * 2-D array (16x16 doubles) transmission — Figure 12, Table 2.
//
// Each run compiles the corresponding IR model at the requested level,
// installs the generated plans into a 2-machine cluster, and sends the
// structure `iterations` times from machine 0 to machine 1.
#pragma once

#include "apps/run_env.hpp"
#include "apps/run_result.hpp"
#include "codegen/opt_level.hpp"

namespace rmiopt::apps {

struct ListBenchConfig {
  int list_length = 100;   // paper: 100 elements
  int iterations = 100;    // paper: benchmark routine run 100 times
  std::size_t machines = 2;
  // §7 future-work refinement: prove the list acyclic at compile time.
  bool precise_cycles = false;
  RunEnv env;
};

RunResult run_list_bench(codegen::OptLevel level,
                         const ListBenchConfig& cfg = {});

struct ArrayBenchConfig {
  std::uint32_t rows = 16;  // paper: 16x16 doubles
  std::uint32_t cols = 16;
  int iterations = 100;
  std::size_t machines = 2;
  // When nonzero, every other send uses this column count instead: the
  // reuse cache's runtime size check (Fig. 13) fails and rows reallocate.
  std::uint32_t alternate_cols = 0;
  RunEnv env;
};

RunResult run_array_bench(codegen::OptLevel level,
                          const ArrayBenchConfig& cfg = {});

}  // namespace rmiopt::apps
