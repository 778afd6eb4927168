// Configuration-path tests for the benchmark applications: custom
// superoptimizer targets, concurrent web-server pipelines, custom cost
// models, input validation, and the observers of the shared RunEnv.
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "apps/lu.hpp"
#include "apps/microbench.hpp"
#include "apps/superopt.hpp"
#include "apps/webserver.hpp"
#include "support/error.hpp"
#include "trace/recorder.hpp"

namespace rmiopt::apps {
namespace {

using codegen::OptLevel;

TEST(AppConfig, SuperoptCustomTargetFindsItself) {
  // Target: r1 = r0 - r0 (always zero).  XOR r1,r0,r0 and MOV r1,#0 are
  // equivalents; the target's own encoding must be found too.
  SuperoptConfig cfg;
  cfg.target = {SopInstr{SopOp::Sub, 1, {false, 0}, {false, 0}}};
  cfg.max_len = 1;
  const RunResult r = run_superopt(OptLevel::SiteReuseCycle, cfg);
  EXPECT_GE(r.check, 3.0);  // SUB, XOR, MOV #0 at least
}

TEST(AppConfig, SuperoptWithLargerQueueSameResult) {
  SuperoptConfig a, b;
  a.max_len = 1;
  b.max_len = 1;
  a.queue_capacity = 2;   // heavy back-pressure
  b.queue_capacity = 512;
  EXPECT_EQ(run_superopt(OptLevel::Class, a).check,
            run_superopt(OptLevel::Class, b).check);
}

TEST(AppConfig, WebserverConcurrentClientsServeEverything) {
  WebserverConfig cfg;
  cfg.requests = 200;
  cfg.pages = 8;
  cfg.page_size = 256;
  cfg.concurrent_clients = 4;
  for (const auto level : {OptLevel::Class, OptLevel::SiteReuseCycle}) {
    const RunResult r = run_webserver(level, cfg);
    EXPECT_EQ(r.check, 200.0 * 256.0) << codegen::to_string(level);
    EXPECT_EQ(r.total.remote_rpcs, 200u + 1u);  // +1 name-service bind
  }
}

TEST(AppConfig, PipeliningReducesTimePerPage) {
  WebserverConfig seq;
  seq.requests = 200;
  WebserverConfig par = seq;
  par.concurrent_clients = 8;
  const auto t_seq = run_webserver(OptLevel::SiteReuseCycle, seq).makespan;
  const auto t_par = run_webserver(OptLevel::SiteReuseCycle, par).makespan;
  EXPECT_LT(t_par.as_nanos(), t_seq.as_nanos() / 2);
}

TEST(AppConfig, CustomCostModelChangesTiming) {
  ArrayBenchConfig slow;
  slow.iterations = 20;
  slow.env.cost.msg_latency_ns = 500'000;  // a WAN
  ArrayBenchConfig fast = slow;
  fast.env.cost.msg_latency_ns = 1'000;
  const auto t_slow = run_array_bench(OptLevel::Site, slow).makespan;
  const auto t_fast = run_array_bench(OptLevel::Site, fast).makespan;
  EXPECT_GT(t_slow.as_nanos(), 10 * t_fast.as_nanos());
}

TEST(AppConfig, ZeroCopyReceiveSpeedsUpBulkTransfers) {
  ArrayBenchConfig normal;
  normal.rows = 64;
  normal.cols = 64;
  normal.iterations = 50;
  ArrayBenchConfig zc = normal;
  zc.env.cost.zero_copy_receive = true;
  const auto t_normal = run_array_bench(OptLevel::Site, normal).makespan;
  const auto t_zc = run_array_bench(OptLevel::Site, zc).makespan;
  EXPECT_LT(t_zc, t_normal);
}

TEST(AppConfig, InvalidConfigsAreRejected) {
  ListBenchConfig list;
  list.machines = 1;
  EXPECT_THROW(run_list_bench(OptLevel::Class, list), rmiopt::Error);
  WebserverConfig web;
  web.machines = 1;
  EXPECT_THROW(run_webserver(OptLevel::Class, web), rmiopt::Error);
  SuperoptConfig sop;
  sop.machines = 1;
  EXPECT_THROW(run_superopt(OptLevel::Class, sop), rmiopt::Error);
  LuConfig lu;
  lu.n = 1;
  EXPECT_THROW(run_lu(OptLevel::Class, lu), rmiopt::Error);
}

TEST(AppConfig, LuComputeCostScalesWithFlopConstant) {
  LuConfig cheap;
  cheap.n = 48;
  cheap.flop_pair_ns = 0.0;
  LuConfig costly = cheap;
  costly.flop_pair_ns = 20.0;
  const auto t_cheap = run_lu(OptLevel::SiteReuseCycle, cheap).makespan;
  const auto t_costly = run_lu(OptLevel::SiteReuseCycle, costly).makespan;
  EXPECT_GT(t_costly.as_nanos(), t_cheap.as_nanos());
}

// Runs `cfg` at every paper level with and without a trace recorder and a
// frame probe in its RunEnv: the observers must see the run (call spans,
// frames) and must not change it (the observer rule).
template <typename Config>
void expect_observers_never_change(const char* app,
                                   RunResult (*run)(OptLevel, const Config&),
                                   const Config& cfg,
                                   bool compare_makespan = true) {
  for (const OptLevel level : codegen::kPaperLevels) {
    SCOPED_TRACE(std::string(app) + " " + std::string(to_string(level)));
    const RunResult plain = run(level, cfg);
    trace::MemoryRecorder rec;
    std::atomic<std::uint64_t> frames{0};
    Config observed = cfg;
    observed.env.recorder = &rec;
    observed.env.frame_probe = [&frames](std::uint16_t, std::uint16_t,
                                         const wire::Frame&) {
      frames.fetch_add(1, std::memory_order_relaxed);
    };
    const RunResult seen = run(level, observed);

    EXPECT_FALSE(rec.events_of(trace::EventKind::Call).empty());
    EXPECT_GT(frames.load(), 0u);
    if (compare_makespan) {
      EXPECT_EQ(seen.makespan.as_nanos(), plain.makespan.as_nanos());
    }
    EXPECT_EQ(seen.per_machine, plain.per_machine);
    EXPECT_EQ(seen.net, plain.net);
    EXPECT_DOUBLE_EQ(seen.check, plain.check);
  }
}

// Makespans are compared only where they are exact under any host load,
// the two microbenchmarks: LU's depends on how the host interleaves its
// workers, and superopt's and the web server's end one 60 ns charge apart
// in a few of 1000 runs on a loaded host, observed or not (ROADMAP item 3;
// more often with more callees, hence two machines each).
TEST(AppConfig, EveryAppHonorsItsRunEnv) {
  ListBenchConfig list;
  list.iterations = 10;
  expect_observers_never_change("list", run_list_bench, list);
  ArrayBenchConfig array;
  array.iterations = 10;
  expect_observers_never_change("array", run_array_bench, array);
  LuConfig lu;
  lu.n = 16;
  expect_observers_never_change("lu", run_lu, lu, /*compare_makespan=*/false);
  SuperoptConfig sop;
  sop.test_vectors = 4;
  expect_observers_never_change("superopt", run_superopt, sop,
                                /*compare_makespan=*/false);
  WebserverConfig web;
  web.requests = 30;
  expect_observers_never_change("webserver", run_webserver, web,
                                /*compare_makespan=*/false);
}

}  // namespace
}  // namespace rmiopt::apps
