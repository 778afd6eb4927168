// Table 3: LU runtime, 1024 matrix, 2 CPUs (reproduced at n=256).
//
// Expected shape (paper): call-site-specific code helps most (~13%),
// cycle elision adds ~3%, reuse ~3%; everything on gains ~18.7%.
#include "apps/lu.hpp"
#include "bench/bench_common.hpp"

int main() {
  using namespace rmiopt;
  bench::print_paper_reference(
      "Table 3 (LU: runtime 1024 matrix, 2 CPU's)",
      {"class                 79.81   0%", "site                  69.23   13.2%",
       "site + cycle          66.88   16.2%",
       "site + reuse          67.28   15.6%",
       "site + reuse + cycle  64.85   18.7%"});

  bench::SharedModel shared(apps::figures::make_lu_model);
  apps::LuConfig cfg;
  cfg.env = shared.env;
  cfg.n = 256;
  const auto runs = bench::run_levels([&](bench::OptLevel l) {
    const apps::RunResult r = apps::run_lu(l, cfg);
    RMIOPT_CHECK(r.check < 1e-8, "LU residual too large — wrong result");
    return r;
  });
  bench::print_runtime_table(
      "Reproduction: LU 256x256, 2 machines (virtual seconds; residual "
      "verified < 1e-8)",
      runs);
  bench::print_compile_table(runs);
  return 0;
}
