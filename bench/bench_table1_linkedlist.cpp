// Table 1: LinkedList transmission, 100 elements, 2 CPUs.
//
// Expected shape (paper): 'site' gains ~13% over 'class'; '+cycle' adds
// nothing (the list is conservatively kept cyclic, §7); '+reuse' is the
// big win (~43%) because 100 allocations per RMI are saved.
#include "apps/microbench.hpp"
#include "bench/bench_common.hpp"

int main() {
  using namespace rmiopt;
  bench::print_paper_reference(
      "Table 1 (LinkedList: 100 elements, 2 CPU's)",
      {"class                 161.5   0", "site                  140.4   13.0%",
       "site + cycle          140.5   13.0%",
       "site + reuse           91.5   43.3%",
       "site + reuse + cycle   91.5   43.3%"});

  bench::SharedModel shared(apps::figures::make_figure14);
  apps::ListBenchConfig cfg;
  cfg.env = shared.env;
  cfg.list_length = 100;
  cfg.iterations = 1000;
  const auto runs = bench::run_levels(
      [&](bench::OptLevel l) { return apps::run_list_bench(l, cfg); });
  bench::print_runtime_table(
      "Reproduction: LinkedList, 100 elements, 1000 RMIs, 2 machines "
      "(virtual seconds)",
      runs);
  bench::print_compile_table(runs);
  return 0;
}
