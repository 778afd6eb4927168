// Table 7: web server, microseconds per webpage retrieval, 2 CPUs.
//
// Expected shape (paper): ~18% from call-site-specific marshalers, ~18%
// more from cycle elision (every page body is probed per request
// otherwise), reuse contributes via allocation elimination; total ~37%.
#include "apps/webserver.hpp"
#include "bench/bench_common.hpp"

int main() {
  using namespace rmiopt;
  bench::print_paper_reference(
      "Table 7 (Webserver: microseconds per webpage retrieval, 2 CPU's)",
      {"class                 47.7   0%", "site                  39.2   17.8%",
       "site + cycle          30.9   35.2%",
       "site + reuse          38.0   20.3%",
       "site + reuse + cycle  29.7   37.7%"});

  bench::SharedModel shared(apps::figures::make_webserver_model);
  apps::WebserverConfig cfg;
  cfg.env = shared.env;
  cfg.requests = 2000;
  const auto runs = bench::run_levels([&](bench::OptLevel l) {
    const apps::RunResult r = apps::run_webserver(l, cfg);
    RMIOPT_CHECK(r.check ==
                     static_cast<double>(cfg.requests * cfg.page_size),
                 "webserver dropped page bytes");
    return r;
  });

  std::printf(
      "Reproduction: %zu requests, %zu-byte pages, 2 machines "
      "(virtual microseconds per webpage)\n",
      cfg.requests, cfg.page_size);
  TextTable t({"Compiler Optimization", "us per Webpage", "gain on 'class'"});
  const double base =
      runs.front().result.makespan.as_micros() / cfg.requests;
  for (const auto& run : runs) {
    const double us = run.result.makespan.as_micros() / cfg.requests;
    t.add_row({std::string(codegen::to_string(run.level)), fmt_fixed(us, 2),
               fmt_gain(base, us)});
  }
  std::printf("%s\n", t.render().c_str());
  bench::print_compile_table(runs);
  return 0;
}
