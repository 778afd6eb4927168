// Table 6: superoptimizer runtime statistics, 2 CPUs.
//
// Expected shape (paper): essentially zero reuse at every level; ~10
// cycle lookups per shipped candidate in cycle-checking configurations,
// collapsing to ~0 with elision; allocation volume unchanged by reuse
// (the arguments escape into the queue).
#include "apps/superopt.hpp"
#include "bench/bench_common.hpp"

int main() {
  using namespace rmiopt;
  bench::print_paper_reference(
      "Table 6 (Superoptimizer: runtime statistics, 2 CPU's)",
      {"opt                   reused objs  local rpcs  remote rpcs  new(MB) "
       " cycle lookups",
       "class                 0            5250554     5250570      1101    "
       " 52499065",
       "site                  0            5250554     5250570      1101    "
       " 52499082",
       "site + cycle          0            5250554     5250570      1101    "
       " 17",
       "site + reuse          2            5250554     5250570      1101    "
       " 52499082",
       "site + reuse + cycle  2            5250554     5250570      1101    "
       " 17"});

  bench::SharedModel shared(apps::figures::make_superopt_model);
  apps::SuperoptConfig cfg;
  cfg.env = shared.env;
  cfg.max_len = 2;
  const auto runs = bench::run_levels(
      [&](bench::OptLevel l) { return apps::run_superopt(l, cfg); });
  bench::print_stats_table(
      "Reproduction: superoptimizer, <=2-instruction search, 2 machines",
      runs);
  bench::print_compile_table(runs);
  return 0;
}
