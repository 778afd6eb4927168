// The seeded chaos harness: one fault-plan generator and one small config
// per application, shared by tests/chaos_soak_test.cpp (a fixed seed set
// in the tier-1 suite) and bench/ablation_chaos.cpp (a wide seed sweep),
// so a seed that fails in one reproduces in the other.
#pragma once

#include <array>
#include <cstdint>

#include "apps/run_env.hpp"
#include "apps/run_result.hpp"
#include "codegen/opt_level.hpp"

namespace rmiopt::apps {

// Randomized-but-seeded fault plan: lossy links everywhere, plus (when
// `allow_crash`, for an app whose replicas make a death survivable) one
// crashed machine.  Machine 0 is never crashed — it anchors the registry
// and the detector.
net::FaultPlan chaos_plan(std::uint64_t seed, std::size_t machines,
                          bool allow_crash);

// The heartbeat failure detector, enabled with its default timing.
net::FailureDetectorConfig chaos_detector();

struct ChaosApp {
  const char* name;
  std::size_t machines;
  bool allow_crash;
  // Runs the app's small chaos config at `level` in `env`.
  RunResult (*run)(codegen::OptLevel level, const RunEnv& env);

  // The environment of one chaos run: chaos_plan(seed) with the detector.
  RunEnv env(std::uint64_t seed) const {
    RunEnv e;
    e.faults = chaos_plan(seed, machines, allow_crash);
    e.detector = chaos_detector();
    return e;
  }
};

// list, array, lu, superopt, webserver; only the webserver, whose every
// slave holds every page, may lose a machine.
extern const std::array<ChaosApp, 5> kChaosApps;

}  // namespace rmiopt::apps
