// Ablation: where do compile-time RMI optimizations matter?
//
// The paper's gains were measured on Myrinet (~15 us one-way).  Sweeping
// the modelled network latency shows the crossover: on a slower (WAN-ish)
// network the wire dominates and CPU-side optimizations shrink; on a
// faster (shared-memory-ish) interconnect they grow.
#include <cstdio>

#include "apps/microbench.hpp"
#include "bench/bench_common.hpp"

using namespace rmiopt;

int main() {
  TextTable t({"one-way latency", "class (s)", "all opts (s)", "total gain"});
  for (const std::int64_t latency_us : {1, 5, 15, 50, 200, 1000}) {
    apps::ArrayBenchConfig cfg;
    cfg.iterations = 300;
    cfg.env.cost.msg_latency_ns = latency_us * 1000;
    const double t_class =
        apps::run_array_bench(codegen::OptLevel::Class, cfg).makespan
            .as_seconds();
    const double t_all =
        apps::run_array_bench(codegen::OptLevel::SiteReuseCycle, cfg)
            .makespan.as_seconds();
    t.add_row({std::to_string(latency_us) + " us", fmt_fixed(t_class, 4),
               fmt_fixed(t_all, 4), fmt_gain(t_class, t_all)});
  }
  std::printf("Ablation: optimization gain vs network latency "
              "(double[16][16], 300 RMIs)\n%s",
              t.render().c_str());
  std::printf("\nThe paper's ~30%% array-benchmark gain presumes a "
              "Myrinet-class network; at WAN latencies serialization CPU "
              "is hidden behind the wire.\n");
  return 0;
}
