// Table 2: 2-D array transmission, 16x16 doubles, 2 CPUs.
//
// Expected shape (paper): every optimization helps; call-site-specific
// marshalers (type-info removal) are the biggest single step; the full
// stack gains ~30%.
#include "apps/microbench.hpp"
#include "bench/bench_common.hpp"

int main() {
  using namespace rmiopt;
  bench::print_paper_reference(
      "Table 2 (2D array transmission, 16x16, 2 CPU's)",
      {"class                 130.5   0%", "site                  110.0   15.7%",
       "site + cycle           97.5   25.2%",
       "site + reuse          103.0   21.0%",
       "site + reuse + cycle   91.5   29.8%"});

  bench::SharedModel shared(apps::figures::make_figure12);
  apps::ArrayBenchConfig cfg;
  cfg.env = shared.env;
  cfg.rows = 16;
  cfg.cols = 16;
  cfg.iterations = 1000;
  const auto runs = bench::run_levels(
      [&](bench::OptLevel l) { return apps::run_array_bench(l, cfg); });
  bench::print_runtime_table(
      "Reproduction: double[16][16], 1000 RMIs, 2 machines (virtual "
      "seconds)",
      runs);
  bench::print_compile_table(runs);
  return 0;
}
