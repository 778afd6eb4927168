// Seeded chaos soak: every application, every paper optimization level,
// under a randomized (but fully seeded, hence reproducible) fault plan
// with the failure detector on.
//
// The invariants, checked against a clean baseline of the same config:
//  * the application check value is unchanged — at-most-once admission
//    means no handler ever runs twice, and ARQ + dedup + failover mean
//    no result is lost, so check-equality IS the no-double-execution /
//    no-lost-work oracle (the LU barrier counts arrivals, the superopt
//    queue counts hits: a duplicated or dropped handler moves the value);
//  * the virtual makespan stays bounded — faults cost time, never
//    livelock.
//
// Every assertion message carries (app, level, seed) so a violation
// pinpoints the reproducing plan.  The harness (apps/chaos.hpp) is shared
// with bench/ablation_chaos.cpp, which sweeps a wider seed range.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <map>
#include <mutex>

#include "apps/chaos.hpp"
#include "rmi/runtime.hpp"
#include "support/rng.hpp"

namespace rmiopt {
namespace {

using apps::chaos_detector;
using apps::chaos_plan;
using codegen::OptLevel;

constexpr std::uint64_t kSeeds[] = {1001, 2002};

// One clean + N seeded runs of one app at every level; asserts the
// invariants per seed.
void soak(const apps::ChaosApp& app) {
  for (const OptLevel level : codegen::kPaperLevels) {
    const apps::RunResult clean = app.run(level, {});
    for (const std::uint64_t seed : kSeeds) {
      const apps::RunResult r = app.run(level, app.env(seed));
      const std::string where = std::string("app=") + app.name +
                                " level=" + std::string(to_string(level)) +
                                " seed=" + std::to_string(seed);
      ASSERT_DOUBLE_EQ(r.check, clean.check)
          << where << ": chaos changed the application result";
      // Generous but finite: a livelock or an unmasked fault storm blows
      // straight past 20x the healthy makespan plus slack.
      ASSERT_LE(r.makespan.as_nanos(),
                20 * clean.makespan.as_nanos() + 100'000'000)
          << where << ": makespan unbounded under chaos (clean="
          << clean.makespan.as_nanos() << " ns)";
    }
  }
}

TEST(ChaosSoak, LinkedList) { soak(apps::kChaosApps[0]); }
TEST(ChaosSoak, Array2d) { soak(apps::kChaosApps[1]); }
TEST(ChaosSoak, Lu) { soak(apps::kChaosApps[2]); }
TEST(ChaosSoak, Superopt) { soak(apps::kChaosApps[3]); }
TEST(ChaosSoak, Webserver) { soak(apps::kChaosApps[4]); }

// Deadlines, cancellation and admission control under the same seeded
// chaos: a nested-call topology (0 -> 1, which fans out to 2) driven
// with randomized budgets, cancels and call modes over lossy links.
//
// The invariants:
//  * no handler ever starts after its call's deadline has passed — the
//    deadline gates (dispatcher and executor boundary) refuse expired
//    work before the upcall;
//  * at-most-once holds — no (caller, seq) key executes twice, even with
//    duplicating links, cancels racing replies, and reject tombstones;
//  * every failure is typed (RmiTimeout / DeadlineExceeded / Overload /
//    Cancelled / RemoteException) — anything else escapes and fails the
//    test — and the virtual makespan stays bounded.
TEST(ChaosSoak, DeadlinesAndCancelsStayTypedUnderChaos) {
  for (const std::uint64_t seed : kSeeds) {
    const net::FaultPlan plan = chaos_plan(seed, 3, /*allow_crash=*/false);
    om::TypeRegistry types;
    net::Cluster cluster(3, types, serial::CostModel{},
                         net::TransportKind::Sim, wire::SessionConfig{}, plan,
                         chaos_detector());
    rmi::ExecutorConfig exec;
    // A pool, not the paper's inline dispatcher: nested synchronous calls
    // need the dispatcher free to drain the nested reply, and a pool is
    // the only configuration where an in-flight cancel can be honored.
    exec.dispatch_workers = 2;
    exec.call_timeout_ms = 2'000;
    exec.inbox_bound = 8;  // admission control live under chaos too
    rmi::RmiSystem sys(cluster, types, exec);
    const std::string where = "seed=" + std::to_string(seed);

    std::mutex mu;
    std::map<std::uint64_t, int> runs;  // call_key -> handler executions
    std::atomic<int> deadline_violations{0};
    auto record = [&](rmi::CallContext& ctx) {
      const rmi::ReplyToken t = ctx.reply_token();
      const std::uint64_t key =
          (static_cast<std::uint64_t>(t.caller_machine) << 32) | t.seq;
      {
        std::scoped_lock lock(mu);
        ++runs[key];
      }
      // Concurrent workers share one per-machine clock, so another
      // handler may advance it between this call's boundary gate and this
      // read; tolerate that bounded skew (well under 2 ms of modelled
      // work).  A *missing* gate admits arbitrarily stale calls — those
      // still trip this.
      if (ctx.deadline_ns() != 0 &&
          ctx.machine().clock().now().as_nanos() >=
              ctx.deadline_ns() + 2'000'000) {
        ++deadline_violations;
      }
    };

    const auto inner_mid =
        sys.define_method("chaos.inner", [&](rmi::CallContext& ctx,
                                             std::span<const std::int64_t> s,
                                             auto) {
          record(ctx);
          ctx.machine().clock().advance(SimTime::nanos(s[0]));
          return rmi::HandlerResult{};
        });
    rmi::RemoteRef inner_ref;  // exported below
    std::uint32_t inner_cs = 0;

    const auto outer_mid =
        sys.define_method("chaos.outer", [&](rmi::CallContext& ctx,
                                             std::span<const std::int64_t> s,
                                             auto) {
          record(ctx);
          ctx.machine().clock().advance(SimTime::nanos(s[0]));
          if (s[1] != 0) {
            // Nested hop: inherits the remaining budget minus slack; its
            // typed verdict (if any) propagates back as a Reject.
            sys.invoke(1, inner_ref, inner_cs,
                       std::span<const om::ObjRef>{},
                       std::array<std::int64_t, 1>{s[0] / 2});
          }
          return rmi::HandlerResult{};
        });

    auto make_site = [&](std::uint32_t method, const char* name) {
      rmi::CompiledCallSite cs;
      cs.method_id = method;
      cs.plan = std::make_unique<serial::CallSitePlan>();
      cs.plan->name = name;
      return cs;
    };
    const auto outer_cs = sys.add_callsite(make_site(outer_mid, "chaos.outer"));
    inner_cs = sys.add_callsite(make_site(inner_mid, "chaos.inner"));
    const rmi::RemoteRef outer_ref = sys.export_object(1, nullptr);
    inner_ref = sys.export_object(2, nullptr);
    sys.start();

    SplitMix64 rng(seed * 31 + 7);
    int successes = 0;
    int typed_failures = 0;
    for (int i = 0; i < 40; ++i) {
      constexpr std::int64_t kBudgets[] = {0, 200'000, 2'000'000, 20'000'000};
      const rmi::CallOptions opts{.budget_ns = kBudgets[rng.next_below(4)]};
      const std::array<std::int64_t, 2> scalars = {
          static_cast<std::int64_t>(rng.next_below(500'000)),  // handler work
          static_cast<std::int64_t>(rng.next_below(2))};       // nest?
      try {
        switch (rng.next_below(3)) {
          case 0:
            sys.invoke(0, outer_ref, outer_cs, {}, scalars, opts);
            break;
          case 1: {
            rmi::RmiFuture f =
                sys.invoke_async(0, outer_ref, outer_cs, {}, scalars, opts);
            if (rng.next_below(2) == 0) f.cancel();
            f.get();
            break;
          }
          case 2:
            sys.invoke_oneway(0, outer_ref, outer_cs, {}, scalars, opts);
            break;
        }
        ++successes;
      } catch (const rmi::RmiTimeout&) {  // incl. MachineDown, DeadlineExceeded
        ++typed_failures;
      } catch (const rmi::Overload&) {
        ++typed_failures;
      } catch (const rmi::Cancelled&) {
        ++typed_failures;
      } catch (const rmi::RemoteException&) {
        ++typed_failures;
      }
    }
    sys.stop();

    ASSERT_EQ(deadline_violations.load(), 0)
        << where << ": a handler started after its deadline";
    {
      std::scoped_lock lock(mu);
      for (const auto& [key, count] : runs) {
        ASSERT_LE(count, 1) << where << ": call key " << key << " executed "
                            << count << " times (at-most-once violated)";
      }
    }
    ASSERT_GT(successes, 0) << where << ": chaos plan starved every call";
    ASSERT_EQ(successes + typed_failures, 40)
        << where << ": an untyped failure escaped";
    ASSERT_LE(cluster.makespan().as_nanos(), SimTime::seconds(30).as_nanos())
        << where << ": makespan unbounded under deadline/cancel chaos";
  }
}

}  // namespace
}  // namespace rmiopt
