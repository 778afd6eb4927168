// Table 5: superoptimizer exhaustive-search runtime, 2 CPUs.
//
// Expected shape (paper): cycle-detection elision is the dominant win for
// this application (~12.7% of the 19.4% total) because every candidate
// program is a ~10-object graph whose every node is probed; reuse adds
// nothing (the queued candidates escape).
#include "apps/superopt.hpp"
#include "bench/bench_common.hpp"

int main() {
  using namespace rmiopt;
  bench::print_paper_reference(
      "Table 5 (Superoptimizer: seconds for the exhaustive search, 2 CPU's)",
      {"class                 400.03   0%", "site                  373.22   6.7%",
       "site + cycle          322.52   19.3%",
       "site + reuse          375.47   6.1%",
       "site + reuse + cycle  322.06   19.4%"});

  bench::SharedModel shared(apps::figures::make_superopt_model);
  apps::SuperoptConfig cfg;
  cfg.env = shared.env;
  cfg.max_len = 2;
  const auto runs = bench::run_levels([&](bench::OptLevel l) {
    const apps::RunResult r = apps::run_superopt(l, cfg);
    RMIOPT_CHECK(r.check >= 2.0, "superoptimizer lost known equivalences");
    return r;
  });
  bench::print_runtime_table(
      "Reproduction: exhaustive search over <=2-instruction sequences, "
      "2 machines (virtual seconds; equivalences verified)",
      runs);
  std::printf("equivalent sequences found: %.0f\n", runs[0].result.check);
  bench::print_compile_table(runs);
  return 0;
}
