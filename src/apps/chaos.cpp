#include "apps/chaos.hpp"

#include "apps/lu.hpp"
#include "apps/microbench.hpp"
#include "apps/superopt.hpp"
#include "apps/webserver.hpp"
#include "support/rng.hpp"

namespace rmiopt::apps {

using codegen::OptLevel;

net::FaultPlan chaos_plan(std::uint64_t seed, std::size_t machines,
                          bool allow_crash) {
  net::FaultPlan plan;
  plan.seed = seed;
  SplitMix64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  plan.default_link.drop = 0.06 * rng.next_double();
  plan.default_link.duplicate = 0.05 * rng.next_double();
  plan.default_link.reorder = 0.05 * rng.next_double();
  plan.default_link.corrupt = 0.04 * rng.next_double();
  if (allow_crash && machines > 2) {
    const auto victim = static_cast<std::uint16_t>(
        1 + rng.next_below(static_cast<std::uint64_t>(machines) - 1));
    const auto at = static_cast<std::int64_t>(
        200'000 + rng.next_below(2'000'000));
    plan.crash_at(victim, at);
  }
  return plan;
}

net::FailureDetectorConfig chaos_detector() {
  net::FailureDetectorConfig d;
  d.enabled = true;
  return d;
}

const std::array<ChaosApp, 5> kChaosApps = {{
    {"list", 2, false,
     [](OptLevel level, const RunEnv& env) {
       ListBenchConfig cfg;
       cfg.list_length = 16;
       cfg.iterations = 6;
       cfg.env = env;
       return run_list_bench(level, cfg);
     }},
    {"array", 2, false,
     [](OptLevel level, const RunEnv& env) {
       ArrayBenchConfig cfg;
       cfg.rows = 8;
       cfg.cols = 8;
       cfg.iterations = 6;
       cfg.env = env;
       return run_array_bench(level, cfg);
     }},
    {"lu", 2, false,
     [](OptLevel level, const RunEnv& env) {
       LuConfig cfg;
       cfg.n = 20;
       cfg.env = env;
       return run_lu(level, cfg);
     }},
    {"superopt", 3, false,
     [](OptLevel level, const RunEnv& env) {
       SuperoptConfig cfg;
       cfg.max_len = 1;
       cfg.test_vectors = 4;
       cfg.machines = 3;
       cfg.env = env;
       return run_superopt(level, cfg);
     }},
    {"webserver", 4, true,
     [](OptLevel level, const RunEnv& env) {
       WebserverConfig cfg;
       cfg.machines = 4;
       cfg.pages = 8;
       cfg.page_size = 128;
       cfg.requests = 30;
       cfg.call_timeout_ms = 5'000;  // real-time backstop, not the path
       cfg.env = env;
       return run_webserver(level, cfg);
     }},
}};

}  // namespace rmiopt::apps
