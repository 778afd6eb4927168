// Table 8: web server runtime statistics, 2 CPUs.
//
// Expected shape (paper): with reuse "no new objects are created after
// the first webpage has been retrieved" — allocation volume drops to ~0;
// cycle elision removes all lookups.
#include "apps/webserver.hpp"
#include "bench/bench_common.hpp"

int main() {
  using namespace rmiopt;
  bench::print_paper_reference(
      "Table 8 (Webserver: runtime statistics, 2 CPU's)",
      {"opt                   reused objs  local rpcs  remote rpcs  new(MB) "
       " cycle lookups",
       "class                 0            500.007     500.003      226.94  "
       " 5.000.004",
       "site                  0            500.007     500.003      165.90  "
       " 3.500.003",
       "site + cycle          0            500.007     500.003      165.90  "
       " 3",
       "site + reuse          3.499.988    500.007     500.003      0.0     "
       " 3.500.003",
       "site + reuse + cycle  3.499.988    500.007     500.003      0.0     "
       " 3"});

  bench::SharedModel shared(apps::figures::make_webserver_model);
  apps::WebserverConfig cfg;
  cfg.env = shared.env;
  cfg.requests = 2000;
  const auto runs = bench::run_levels(
      [&](bench::OptLevel l) { return apps::run_webserver(l, cfg); });
  bench::print_stats_table(
      "Reproduction: webserver, 2000 requests, 2 machines", runs);
  bench::print_compile_table(runs);
  return 0;
}
