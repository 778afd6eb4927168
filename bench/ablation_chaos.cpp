// Chaos soak sweep: seeded fault plans (lossy links + a crashed webserver
// slave) across every application and every paper optimization level,
// with the heartbeat failure detector enabled.
//
// Same harness as tests/chaos_soak_test.cpp (apps/chaos.hpp), scaled out:
// the test pins a small fixed seed set for the tier-1 suite; this binary
// sweeps RMIOPT_CHAOS_SEEDS consecutive seeds (default 10, CI passes more
// on manual dispatch) starting at RMIOPT_CHAOS_BASE_SEED (default 1).
//
// Invariants per (app, level, seed), against a clean same-config run:
//  * check value unchanged — no handler double-execution, no lost work;
//  * virtual makespan bounded — faults cost time, never livelock.
//
// On a violation the binary re-runs the failing config with tracing on,
// writes the Chrome trace to RMIOPT_CHAOS_TRACE (default
// chaos_failure_trace.json, uploaded as a CI artifact) and aborts with
// the reproducing (app, level, seed) in the message.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/chaos.hpp"
#include "bench/bench_common.hpp"

using namespace rmiopt;
using apps::kChaosApps;
using codegen::OptLevel;

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 10)
                                    : fallback;
}

// Dumps a traced re-run of the failing config so CI can attach it.
void dump_failure_trace(const apps::ChaosApp& app, OptLevel level,
                        apps::RunEnv env) {
  const char* path = std::getenv("RMIOPT_CHAOS_TRACE");
  if (path == nullptr || *path == '\0') path = "chaos_failure_trace.json";
  trace::MemoryRecorder rec;
  env.recorder = &rec;
  try {
    app.run(level, env);
  } catch (const Error&) {
    // The re-run may throw where the invariant run merely mis-counted;
    // the partial trace is still the artifact we want.
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  const std::string json = chrome_trace_json(rec.events());
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "chaos: failing-run trace written to %s\n", path);
}

}  // namespace

int main() {
  const std::uint64_t seeds = env_u64("RMIOPT_CHAOS_SEEDS", 10);
  const std::uint64_t base = env_u64("RMIOPT_CHAOS_BASE_SEED", 1);

  std::printf(
      "chaos soak: %llu seeds x %zu apps x %zu levels, detector on\n"
      "(seeded lossy links everywhere; webserver also crashes one slave)\n\n",
      static_cast<unsigned long long>(seeds), kChaosApps.size(),
      std::size(codegen::kPaperLevels));

  TextTable t({"app", "runs", "faults", "retrans", "deaths",
                      "failovers", "max slowdown"});
  for (const apps::ChaosApp& app : kChaosApps) {
    std::uint64_t runs = 0, faults = 0, retrans = 0, deaths = 0,
                  failovers = 0;
    double max_slowdown = 1.0;
    for (OptLevel level : codegen::kPaperLevels) {
      const apps::RunResult clean = app.run(level, {});
      for (std::uint64_t s = 0; s < seeds; ++s) {
        const std::uint64_t seed = base + s;
        const apps::RunEnv env = app.env(seed);
        const apps::RunResult r = app.run(level, env);
        ++runs;
        faults += r.net.faults();
        retrans += r.net.retransmits;
        deaths += r.net.machine_deaths;
        failovers += r.failovers;
        const std::string where =
            std::string("app=") + app.name +
            " level=" + std::string(to_string(level)) +
            " seed=" + std::to_string(seed);
        const bool check_ok = r.check == clean.check;
        const bool time_ok =
            r.makespan.as_nanos() <=
            20 * clean.makespan.as_nanos() + 100'000'000;
        if (!check_ok || !time_ok) dump_failure_trace(app, level, env);
        RMIOPT_CHECK(check_ok,
                     "chaos changed the application result (" + where + ")");
        RMIOPT_CHECK(time_ok, "makespan unbounded under chaos (" + where +
                                  ": " +
                                  std::to_string(r.makespan.as_nanos()) +
                                  " ns vs clean " +
                                  std::to_string(clean.makespan.as_nanos()) +
                                  " ns)");
        if (clean.makespan.as_nanos() > 0) {
          max_slowdown = std::max(
              max_slowdown, static_cast<double>(r.makespan.as_nanos()) /
                                static_cast<double>(clean.makespan.as_nanos()));
        }
      }
    }
    t.add_row({app.name, std::to_string(runs), std::to_string(faults),
               std::to_string(retrans), std::to_string(deaths),
               std::to_string(failovers), fmt_fixed(max_slowdown, 2)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Every run finished with its clean-run check value and a bounded\n"
      "makespan: at-most-once admission, ARQ recovery, fast-fail routing\n"
      "and name-service failover masked every injected fault.\n");
  return 0;
}
