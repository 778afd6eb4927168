// Table 4: LU runtime statistics, 1024 matrix, 2 CPUs (reproduced at
// n=256).
//
// Expected shape (paper): rpc counts identical across levels; reuse
// recycles most deserialized objects and cuts "new (MBytes)" to a
// quarter; cycle elision drops cycle lookups to (almost) zero.
#include "apps/lu.hpp"
#include "bench/bench_common.hpp"

int main() {
  using namespace rmiopt;
  bench::print_paper_reference(
      "Table 4 (LU: runtime statistics 1024 matrix, 2 CPU's)",
      {"opt                   reused objs  local rpcs  remote rpcs  new(MB) "
       " cycle lookups",
       "class                 0            545.192     538.006      348.14  "
       " 176.998",
       "site                  0            545.192     538.006      348.14  "
       " 176.866",
       "site + cycle          0            545.192     538.006      348.14  "
       " 2",
       "site + reuse          132.645      545.192     538.006      87.04   "
       " 176.866",
       "site + reuse + cycle  132.645      545.192     538.006      87.04   "
       " 2"});

  bench::SharedModel shared(apps::figures::make_lu_model);
  apps::LuConfig cfg;
  cfg.env = shared.env;
  cfg.n = 256;
  const auto runs = bench::run_levels(
      [&](bench::OptLevel l) { return apps::run_lu(l, cfg); });
  bench::print_stats_table("Reproduction: LU 256x256, 2 machines", runs);
  bench::print_compile_table(runs);
  return 0;
}
