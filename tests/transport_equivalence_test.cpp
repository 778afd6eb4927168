// Backend-equivalence tests: the SimTransport (byte-framed, validating)
// and the LoopbackTransport (in-process struct passing) must drive the
// applications to *identical* virtual outcomes, because all virtual-time
// charging lives in the shared Transport base, not in the backends.
//
// The deterministic applications (microbenchmarks, web server) must match
// on the makespan to the nanosecond.  LU runs real worker threads whose
// interleaving perturbs virtual send moments run to run (a pre-existing
// property of the simulation, independent of the backend), so for LU we
// assert the deterministic observables only: event counts, traffic, and
// numerical correctness.
#include <gtest/gtest.h>

#include <array>

#include "apps/lu.hpp"
#include "apps/microbench.hpp"
#include "apps/webserver.hpp"

namespace rmiopt::apps {
namespace {

using codegen::OptLevel;

void expect_same_run(const RunResult& sim, const RunResult& loop,
                     bool compare_makespan = true) {
  if (compare_makespan) {
    EXPECT_EQ(sim.makespan.as_nanos(), loop.makespan.as_nanos());
  }
  EXPECT_EQ(sim.total, loop.total);  // every serializer event count
  ASSERT_EQ(sim.per_machine.size(), loop.per_machine.size());
  for (std::size_t i = 0; i < sim.per_machine.size(); ++i) {
    EXPECT_EQ(sim.per_machine[i], loop.per_machine[i]) << "machine " << i;
  }
  EXPECT_EQ(sim.messages, loop.messages);
  EXPECT_EQ(sim.bytes, loop.bytes);
  EXPECT_DOUBLE_EQ(sim.check, loop.check);
}

// Runs one app config on each backend, the rest of its RunEnv unchanged;
// returns {sim, loopback}.
template <typename Config>
std::array<RunResult, 2> run_both(RunResult (*run)(OptLevel, const Config&),
                                  OptLevel level, Config cfg) {
  cfg.env.transport = net::TransportKind::Sim;
  RunResult sim = run(level, cfg);
  cfg.env.transport = net::TransportKind::Loopback;
  return {std::move(sim), run(level, cfg)};
}

TEST(TransportEquivalence, LinkedListAllLevels) {
  for (OptLevel level : codegen::kPaperLevels) {
    ListBenchConfig cfg;
    cfg.iterations = 20;
    const auto [sim, loop] = run_both(run_list_bench, level, cfg);
    expect_same_run(sim, loop);
  }
}

TEST(TransportEquivalence, ArrayAllLevels) {
  for (OptLevel level : codegen::kPaperLevels) {
    ArrayBenchConfig cfg;
    cfg.iterations = 20;
    const auto [sim, loop] = run_both(run_array_bench, level, cfg);
    expect_same_run(sim, loop);
  }
}

TEST(TransportEquivalence, WebserverMatchesExactly) {
  for (OptLevel level : {OptLevel::Class, OptLevel::SiteReuseCycle}) {
    WebserverConfig cfg;
    cfg.requests = 100;
    const auto [sim, loop] = run_both(run_webserver, level, cfg);
    expect_same_run(sim, loop);
    EXPECT_DOUBLE_EQ(sim.check, 100.0 * cfg.page_size);
  }
}

TEST(TransportEquivalence, LuMatchesOnDeterministicObservables) {
  LuConfig cfg;
  cfg.n = 16;
  const auto [sim, loop] = run_both(run_lu, OptLevel::SiteReuseCycle, cfg);
  // Thread interleaving makes LU's makespan noisy on *both* backends;
  // everything the serializers and the network counted must still agree.
  expect_same_run(sim, loop, /*compare_makespan=*/false);
  EXPECT_LT(sim.check, 1e-9);
  EXPECT_LT(loop.check, 1e-9);
}

}  // namespace
}  // namespace rmiopt::apps
