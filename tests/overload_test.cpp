// Tests for the overload-robustness layer: futures RMI (invoke_async /
// invoke_oneway), virtual-time deadline propagation, cooperative
// cancellation, and deterministic admission control (backpressure up to
// the high-water mark, typed load shedding at the inbox bound).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <optional>
#include <thread>

#include "rmi/executor.hpp"
#include "rmi/runtime.hpp"

namespace rmiopt::rmi {
namespace {

using namespace std::chrono_literals;
using om::ClassId;
using om::ObjRef;
using om::TypeKind;

class OverloadTest : public ::testing::Test {
 protected:
  OverloadTest() {
    point_id = types.define_class(
        "Point", {{"x", TypeKind::Double}, {"y", TypeKind::Double}});
  }

  ~OverloadTest() override {
    if (sys) sys->stop();
  }

  // Tests pick their own machine count and executor knobs; most need a
  // non-default configuration, so the system is built per test.
  void boot(std::size_t machines, const ExecutorConfig& exec = {}) {
    if (sys) sys->stop();
    sys.reset();
    cluster.reset();
    cluster.emplace(machines, types);
    sys.emplace(*cluster, types, exec);
  }

  CompiledCallSite site(std::uint32_t method, bool with_ret) {
    CompiledCallSite cs;
    cs.method_id = method;
    cs.plan = std::make_unique<serial::CallSitePlan>();
    cs.plan->name = "overload.site";
    if (with_ret) cs.plan->ret = serial::make_dynamic_node(om::kNoClass);
    cs.plan->needs_cycle_table = true;
    return cs;
  }

  ObjRef make_point(om::Heap& heap, double x, double y) {
    const om::ClassDescriptor& c = types.get(point_id);
    ObjRef p = heap.alloc(c);
    p->set<double>(c.fields[0], x);
    p->set<double>(c.fields[1], y);
    return p;
  }

  om::TypeRegistry types;
  std::optional<net::Cluster> cluster;
  std::optional<RmiSystem> sys;
  ClassId point_id = om::kNoClass;
};

// ---- futures ----------------------------------------------------------------

TEST_F(OverloadTest, PipelinedAsyncCallsResolveInOrder) {
  boot(2);
  const auto mid = sys->define_method(
      "twice", [&](CallContext& ctx, std::span<const std::int64_t> s, auto) {
        ObjRef out = make_point(ctx.heap(), 2.0 * static_cast<double>(s[0]), 0);
        return HandlerResult{.value = out, .give_ownership = true};
      });
  const auto cs = sys->add_callsite(site(mid, /*with_ret=*/true));
  const RemoteRef ref =
      sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
  sys->start();

  // One app thread pipelines four calls before consuming any reply.
  std::vector<RmiFuture> futs;
  for (std::int64_t i = 0; i < 4; ++i) {
    futs.push_back(
        sys->invoke_async(0, ref, cs, {}, std::array<std::int64_t, 1>{i}));
  }
  const om::ClassDescriptor& c = types.get(point_id);
  om::Heap& h0 = cluster->machine(0).heap();
  for (std::int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(futs[static_cast<std::size_t>(i)].valid());
    ObjRef v = futs[static_cast<std::size_t>(i)].get();
    ASSERT_NE(v, nullptr);
    EXPECT_DOUBLE_EQ(v->get<double>(c.fields[0]), 2.0 * i);
    h0.free_graph(v);
    EXPECT_FALSE(futs[static_cast<std::size_t>(i)].valid());  // consumed
  }
  EXPECT_EQ(sys->stats(0).remote_rpcs, 4u);
  EXPECT_EQ(sys->stats(0).call_timeouts, 0u);
}

TEST_F(OverloadTest, LocalAsyncCallIsReadyImmediately) {
  boot(1);
  const auto ok_mid = sys->define_method(
      "ok", [&](CallContext& ctx, auto, auto) {
        return HandlerResult{.value = make_point(ctx.heap(), 7, 7),
                             .give_ownership = true};
      });
  const auto bad_mid = sys->define_method(
      "bad", [](CallContext&, auto, auto) -> HandlerResult {
        throw Error("handler exploded");
      });
  const auto ok_cs = sys->add_callsite(site(ok_mid, true));
  const auto bad_cs = sys->add_callsite(site(bad_mid, false));
  const RemoteRef ref =
      sys->export_object(0, cluster->machine(0).heap().alloc(point_id));
  sys->start();

  RmiFuture f = sys->invoke_async(0, ref, ok_cs, {});
  EXPECT_TRUE(f.wait_for(0));  // local: the handler already ran inline
  ObjRef v = f.get();
  ASSERT_NE(v, nullptr);
  cluster->machine(0).heap().free_graph(v);

  RmiFuture g = sys->invoke_async(0, ref, bad_cs, {});
  EXPECT_THROW(g.get(), RemoteException);
  EXPECT_EQ(sys->stats(0).local_rpcs, 2u);
}

// ---- oneway -----------------------------------------------------------------

TEST_F(OverloadTest, OnewayRunsTheHandlerAndSendsNoReply) {
  boot(2);
  std::atomic<int> ran{0};
  const auto mid = sys->define_method("fire", [&](CallContext&, auto, auto) {
    ++ran;
    return HandlerResult{};
  });
  const auto cs = sys->add_callsite(site(mid, false));
  const RemoteRef ref =
      sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
  sys->start();

  sys->invoke_oneway(0, ref, cs, {});
  sys->stop();  // drain the callee before reading anything

  EXPECT_EQ(ran.load(), 1);
  const auto s0 = sys->stats(0);
  EXPECT_EQ(s0.oneway_calls, 1u);
  EXPECT_EQ(s0.remote_rpcs, 1u);
  // No reply of any kind came back: nothing to deliver, nothing stray.
  EXPECT_EQ(s0.stray_replies, 0u);
  EXPECT_EQ(sys->stats(1).undeliverable_replies, 0u);
}

TEST_F(OverloadTest, LocalOnewayRunsInlineAndDiscardsTheOutcome) {
  boot(1);
  std::atomic<int> ran{0};
  const auto mid = sys->define_method(
      "fire", [&](CallContext&, auto, auto) -> HandlerResult {
        ++ran;
        throw Error("discarded");  // oneway: nowhere to surface
      });
  const auto cs = sys->add_callsite(site(mid, false));
  const RemoteRef ref =
      sys->export_object(0, cluster->machine(0).heap().alloc(point_id));
  sys->start();

  sys->invoke_oneway(0, ref, cs, {});
  EXPECT_EQ(ran.load(), 1);
  const auto s0 = sys->stats(0);
  EXPECT_EQ(s0.oneway_calls, 1u);
  EXPECT_EQ(s0.local_rpcs, 1u);
}

// ---- the real-time backstop -------------------------------------------------

TEST_F(OverloadTest, NonPositiveCallTimeoutDisablesTheBackstop) {
  // The documented semantics of ExecutorConfig::call_timeout_ms: 0 and
  // negative are equivalent and both mean "wait forever".  A deferred
  // reply landing well after any plausible tiny timeout must still
  // complete the call instead of racing an RmiTimeout.
  for (const std::int64_t timeout_ms : {std::int64_t{0}, std::int64_t{-7}}) {
    ExecutorConfig exec;
    exec.call_timeout_ms = timeout_ms;
    boot(2, exec);
    std::promise<ReplyToken> token_promise;
    const auto mid =
        sys->define_method("defer", [&](CallContext& ctx, auto, auto) {
          token_promise.set_value(ctx.reply_token());
          return HandlerResult{.deferred = true};
        });
    const auto cs = sys->add_callsite(site(mid, false));
    const RemoteRef ref =
        sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
    sys->start();

    std::thread replier([&] {
      ReplyToken token = token_promise.get_future().get();
      std::this_thread::sleep_for(150ms);
      sys->send_reply(token, nullptr);
    });
    EXPECT_EQ(sys->invoke(0, ref, cs, {}), nullptr);
    replier.join();
    EXPECT_EQ(sys->stats(0).call_timeouts, 0u);
    sys->stop();
  }
}

TEST_F(OverloadTest, TimeoutNamesTheCallSiteAndSendsACancel) {
  ExecutorConfig exec;
  exec.call_timeout_ms = 50;
  boot(2, exec);
  const auto mid = sys->define_method("never", [](CallContext&, auto, auto) {
    return HandlerResult{.deferred = true};  // reply never comes
  });
  const auto cs = sys->add_callsite(site(mid, false));
  const RemoteRef ref =
      sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
  sys->start();

  try {
    sys->invoke(0, ref, cs, {});
    FAIL() << "expected RmiTimeout";
  } catch (const RmiTimeout& e) {
    // Failure messages carry the call-site id and opt level, so a chaos
    // failure is attributable without a trace.
    const std::string what = e.what();
    EXPECT_NE(what.find("site 0 (overload.site, class)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("no reply within 50 ms"), std::string::npos) << what;
  }
  const auto s0 = sys->stats(0);
  EXPECT_EQ(s0.call_timeouts, 1u);
  // The backstop tells the callee to stop computing the unread reply.
  EXPECT_EQ(s0.cancels_sent, 1u);
}

TEST_F(OverloadTest, LateReplyAfterTimeoutIsAStrayNotACrash) {
  // Regression for the cancel/timeout-races-late-reply hazard: the
  // pending slot is erased when the caller gives up, so the reply that
  // eventually arrives must be counted as a stray — never delivered into
  // a moved-from promise — and the system must keep working.
  ExecutorConfig exec;
  exec.call_timeout_ms = 50;
  boot(2, exec);
  std::promise<ReplyToken> token_promise;
  const auto slow_mid =
      sys->define_method("slow", [&](CallContext& ctx, auto, auto) {
        token_promise.set_value(ctx.reply_token());
        return HandlerResult{.deferred = true};
      });
  std::atomic<int> fast_ran{0};
  const auto fast_mid = sys->define_method(
      "fast", [&](CallContext&, auto, auto) {
        ++fast_ran;
        return HandlerResult{};
      });
  const auto slow_cs = sys->add_callsite(site(slow_mid, false));
  const auto fast_cs = sys->add_callsite(site(fast_mid, false));
  const RemoteRef ref =
      sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
  sys->start();

  EXPECT_THROW(sys->invoke(0, ref, slow_cs, {}), RmiTimeout);

  // Now complete the abandoned call: the reply crosses the wire and finds
  // no pending slot.
  sys->send_reply(token_promise.get_future().get(), nullptr);
  for (int i = 0; i < 400 && sys->stats(0).stray_replies == 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(sys->stats(0).stray_replies, 1u);

  // The runtime survived the race: a fresh call completes normally.
  EXPECT_EQ(sys->invoke(0, ref, fast_cs, {}), nullptr);
  EXPECT_EQ(fast_ran.load(), 1);
}

// ---- deadlines --------------------------------------------------------------

TEST_F(OverloadTest, CalleeRejectsAnExpiredDeadlineWithoutRunningTheHandler) {
  boot(2);
  std::atomic<int> ran{0};
  const auto mid = sys->define_method("work", [&](CallContext&, auto, auto) {
    ++ran;
    return HandlerResult{};
  });
  const auto cs = sys->add_callsite(site(mid, false));
  const RemoteRef ref =
      sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
  sys->start();

  // The callee's virtual clock is far ahead of the caller's: by the time
  // the call arrives, its 1 us budget has long expired there.
  cluster->machine(1).clock().advance(SimTime::millis(50));
  try {
    sys->invoke(0, ref, cs, {}, {}, CallOptions{.budget_ns = 1'000});
    FAIL() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadline expired before dispatch"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("overload.site"), std::string::npos) << what;
  }
  sys->stop();
  EXPECT_EQ(ran.load(), 0);  // the handler never ran
  EXPECT_EQ(sys->stats(1).deadline_rejects, 1u);
  EXPECT_EQ(sys->stats(0).call_timeouts, 1u);
}

TEST_F(OverloadTest, NestedCallInheritsTheParentBudgetAndFailsFast) {
  boot(3);
  std::atomic<int> inner_ran{0};
  const auto inner_mid =
      sys->define_method("inner", [&](CallContext&, auto, auto) {
        ++inner_ran;
        return HandlerResult{};
      });
  const auto inner_cs = sys->add_callsite(site(inner_mid, false));
  RemoteRef inner_ref;  // exported below, captured by the outer handler

  const auto outer_mid =
      sys->define_method("outer", [&](CallContext& ctx, auto, auto) {
        // Simulate slow handler work that burns the whole 1 ms budget,
        // then try to fan out: the nested invoke inherits the remaining
        // (now negative) budget through the ambient deadline and must
        // fail fast at the send, typed, without touching machine 2.
        ctx.machine().clock().advance(SimTime::millis(10));
        sys->invoke(1, inner_ref, inner_cs, {});
        return HandlerResult{};
      });
  const auto outer_cs = sys->add_callsite(site(outer_mid, false));

  const RemoteRef outer_ref =
      sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
  inner_ref =
      sys->export_object(2, cluster->machine(2).heap().alloc(point_id));
  sys->start();

  try {
    sys->invoke(0, outer_ref, outer_cs, {}, {},
                CallOptions{.budget_ns = 1'000'000});
    FAIL() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded& e) {
    // The typed verdict of the *nested* hop propagated all the way back.
    const std::string what = e.what();
    EXPECT_NE(what.find("budget exhausted before the send"),
              std::string::npos)
        << what;
  }
  sys->stop();
  EXPECT_EQ(inner_ran.load(), 0);
  // Machine 1, as the would-be caller of the nested hop, refused locally.
  EXPECT_EQ(sys->stats(1).deadline_rejects, 1u);
}

TEST_F(OverloadTest, NestedFailFastKeepsItsTypedVerdictAtEitherPlacement) {
  // The scenario above, with the outer object exported on the callee
  // (remote) and on the caller's own machine (local): placement must not
  // change the verdict, so the local path maps the handler's nested
  // DeadlineExceeded to a typed reject exactly like execute_call does.
  for (const std::uint16_t outer_machine : {std::uint16_t{1}, std::uint16_t{0}}) {
    boot(3);
    std::atomic<int> inner_ran{0};
    const auto inner_mid =
        sys->define_method("inner", [&](CallContext&, auto, auto) {
          ++inner_ran;
          return HandlerResult{};
        });
    const auto inner_cs = sys->add_callsite(site(inner_mid, false));
    RemoteRef inner_ref;
    const auto outer_mid =
        sys->define_method("outer", [&](CallContext& ctx, auto, auto) {
          ctx.machine().clock().advance(SimTime::millis(10));
          sys->invoke(outer_machine, inner_ref, inner_cs, {});
          return HandlerResult{};
        });
    const auto outer_cs = sys->add_callsite(site(outer_mid, false));
    const RemoteRef outer_ref = sys->export_object(
        outer_machine, cluster->machine(outer_machine).heap().alloc(point_id));
    inner_ref =
        sys->export_object(2, cluster->machine(2).heap().alloc(point_id));
    sys->start();

    try {
      sys->invoke(0, outer_ref, outer_cs, {}, {},
                  CallOptions{.budget_ns = 1'000'000});
      FAIL() << "expected DeadlineExceeded, outer on machine "
             << outer_machine;
    } catch (const DeadlineExceeded& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("budget exhausted before the send"),
                std::string::npos)
          << what;
    }
    sys->stop();
    EXPECT_EQ(inner_ran.load(), 0);
    EXPECT_EQ(sys->stats(outer_machine).deadline_rejects, 1u);
  }
}

TEST_F(OverloadTest, BadExportIdIsARemoteExceptionAtEitherPlacement) {
  boot(2);
  std::atomic<int> ran{0};
  const auto mid = sys->define_method("noop", [&](CallContext&, auto, auto) {
    ++ran;
    return HandlerResult{};
  });
  const auto cs = sys->add_callsite(site(mid, false));
  for (std::uint16_t m = 0; m < 2; ++m) {
    sys->export_object(m, cluster->machine(m).heap().alloc(point_id));
  }
  sys->start();

  for (const std::uint16_t target : {std::uint16_t{1}, std::uint16_t{0}}) {
    try {
      sys->invoke(0, RemoteRef{target, 999}, cs, {});
      FAIL() << "expected RemoteException, target machine " << target;
    } catch (const RemoteException& e) {
      EXPECT_NE(std::string(e.what()).find("unknown export id 999"),
                std::string::npos)
          << e.what();
    }
    // A oneway call to a bad export is answered by nobody: no throw.
    EXPECT_NO_THROW(sys->invoke_oneway(0, RemoteRef{target, 999}, cs, {}));
    // The failed call left nothing behind: the next call completes.
    EXPECT_EQ(sys->invoke(0, RemoteRef{target, 0}, cs, {}), nullptr);
  }
  sys->stop();
  EXPECT_EQ(ran.load(), 2);
}

TEST_F(OverloadTest, DefaultDeadlineConfigAppliesToEveryCall) {
  ExecutorConfig exec;
  exec.default_deadline_ns = SimTime::seconds(1).as_nanos();
  boot(2, exec);
  std::atomic<std::int64_t> seen{-1};
  const auto mid = sys->define_method(
      "observe", [&](CallContext& ctx, auto, auto) {
        seen = ctx.deadline_ns();
        return HandlerResult{};
      });
  const auto cs = sys->add_callsite(site(mid, false));
  const RemoteRef ref =
      sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
  sys->start();
  sys->invoke(0, ref, cs, {});
  sys->stop();
  EXPECT_GT(seen.load(), 0);  // the wire header carried the default budget

  // And under the default configuration, calls carry no deadline at all.
  boot(2);
  seen = -1;
  const auto mid2 = sys->define_method(
      "observe", [&](CallContext& ctx, auto, auto) {
        seen = ctx.deadline_ns();
        return HandlerResult{};
      });
  const auto cs2 = sys->add_callsite(site(mid2, false));
  const RemoteRef ref2 =
      sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
  sys->start();
  sys->invoke(0, ref2, cs2, {});
  sys->stop();
  EXPECT_EQ(seen.load(), 0);
}

// ---- cancellation -----------------------------------------------------------

TEST_F(OverloadTest, CancelWhileTheHandlerRunsAbandonsTheReply) {
  ExecutorConfig exec;
  exec.dispatch_workers = 2;  // the dispatcher stays free to see the Cancel
  boot(2, exec);
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool open = false;
  const auto mid = sys->define_method("block", [&](CallContext&, auto, auto) {
    std::unique_lock lock(mu);
    ++entered;
    cv.notify_all();
    cv.wait_for(lock, 10s, [&] { return open; });
    return HandlerResult{};
  });
  const auto cs = sys->add_callsite(site(mid, false));
  const RemoteRef ref =
      sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
  sys->start();

  RmiFuture f = sys->invoke_async(0, ref, cs, {});
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return entered == 1; }));
  }
  f.cancel();
  f.cancel();  // idempotent: still exactly one CancelRequest
  std::this_thread::sleep_for(200ms);  // let the callee flag the token
  {
    std::scoped_lock lock(mu);
    open = true;
    cv.notify_all();
  }
  try {
    f.get();
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& e) {
    EXPECT_NE(std::string(e.what()).find("reply abandoned after cancellation"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sys->stats(0).cancels_sent, 1u);
  sys->stop();
  EXPECT_EQ(sys->stats(1).cancels_honored, 1u);
  EXPECT_EQ(entered, 1);
}

TEST_F(OverloadTest, CancelBeforeExecutionRefusesTheCallAtTheBoundary) {
  ExecutorConfig exec;
  exec.dispatch_workers = 2;
  boot(2, exec);
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool open = false;
  const auto mid = sys->define_method("block", [&](CallContext&, auto, auto) {
    std::unique_lock lock(mu);
    ++entered;
    cv.notify_all();
    cv.wait_for(lock, 10s, [&] { return open; });
    return HandlerResult{};
  });
  const auto cs = sys->add_callsite(site(mid, false));
  const RemoteRef ref =
      sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
  sys->start();

  // Fill both workers, then queue a third call behind them and cancel it
  // while it waits: the worker that eventually picks it up must refuse it
  // at the first poll boundary without running the handler.
  RmiFuture f1 = sys->invoke_async(0, ref, cs, {});
  RmiFuture f2 = sys->invoke_async(0, ref, cs, {});
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return entered == 2; }));
  }
  RmiFuture f3 = sys->invoke_async(0, ref, cs, {});
  f3.cancel();
  std::this_thread::sleep_for(200ms);  // Cancel reaches the free dispatcher
  {
    std::scoped_lock lock(mu);
    open = true;
    cv.notify_all();
  }
  EXPECT_EQ(f1.get(), nullptr);
  EXPECT_EQ(f2.get(), nullptr);
  try {
    f3.get();
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& e) {
    EXPECT_NE(std::string(e.what()).find("cancelled before execution"),
              std::string::npos)
        << e.what();
  }
  sys->stop();
  EXPECT_EQ(entered, 2);  // the cancelled call's handler never ran
  EXPECT_EQ(sys->stats(1).cancels_honored, 1u);
}

// ---- admission control ------------------------------------------------------

TEST_F(OverloadTest, AdmissionBackpressuresAtHighWaterAndShedsAtTheBound) {
  ExecutorConfig exec;
  exec.inbox_bound = 4;
  exec.inbox_highwater = 2;
  exec.credit_stall_ns = 20'000;
  // Service time far beyond the test horizon: the modelled backlog never
  // drains during the burst, so the decisions are exact.
  exec.admission_service_ns = SimTime::seconds(1).as_nanos();
  boot(2, exec);
  const auto mid = sys->define_method(
      "sink", [](CallContext&, auto, auto) { return HandlerResult{}; });
  const auto cs = sys->add_callsite(site(mid, false));
  const RemoteRef ref =
      sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
  sys->start();

  net::VirtualClock& clock = cluster->machine(0).clock();
  const std::int64_t t0 = clock.now().as_nanos();
  // Burst of oneways: depths 0 and 1 admit freely; depths 2 and 3 are at
  // or above the high-water mark, so the sender pays a flow-control
  // credit stall (20 us, then 40 us) but is still admitted; depth 4 hits
  // the bound and is shed with a typed Overload.
  sys->invoke_oneway(0, ref, cs, {});
  sys->invoke_oneway(0, ref, cs, {});
  sys->invoke_oneway(0, ref, cs, {});
  sys->invoke_oneway(0, ref, cs, {});
  try {
    sys->invoke_oneway(0, ref, cs, {});
    FAIL() << "expected Overload";
  } catch (const Overload& e) {
    EXPECT_NE(std::string(e.what()).find("inbox at its bound (4)"),
              std::string::npos)
        << e.what();
  }
  auto s0 = sys->stats(0);
  EXPECT_EQ(s0.credit_stalls, 2u);
  EXPECT_EQ(s0.sheds, 1u);
  EXPECT_EQ(s0.oneway_calls, 4u);  // the shed call was refused pre-send
  // The stalls were charged to the sender's virtual clock: 20 + 40 us.
  EXPECT_GE(clock.now().as_nanos() - t0, 60'000);

  // A cooperative sender that waits out the backlog is admitted freely
  // again: below the bound nothing is shed and nothing stalls.
  clock.advance(SimTime::seconds(5));
  sys->invoke_oneway(0, ref, cs, {});
  s0 = sys->stats(0);
  EXPECT_EQ(s0.credit_stalls, 2u);
  EXPECT_EQ(s0.sheds, 1u);
  EXPECT_EQ(s0.oneway_calls, 5u);
}

TEST_F(OverloadTest, AdmissionDecisionsAreDeterministic) {
  // The same seedless burst against two fresh systems must produce the
  // same decisions counter-for-counter: admission is a pure function of
  // virtual time.
  auto run_burst = [&]() -> RmiStatsSnapshot {
    ExecutorConfig exec;
    exec.inbox_bound = 3;
    exec.admission_service_ns = SimTime::millis(1).as_nanos();
    boot(2, exec);
    const auto mid = sys->define_method(
        "sink", [](CallContext&, auto, auto) { return HandlerResult{}; });
    const auto cs = sys->add_callsite(site(mid, false));
    const RemoteRef ref =
        sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
    sys->start();
    for (int i = 0; i < 10; ++i) {
      try {
        sys->invoke_oneway(0, ref, cs, {});
      } catch (const Overload&) {
        // sheds are counted; keep offering load
      }
    }
    sys->stop();
    RmiStatsSnapshot s = sys->stats(0);
    s.serial = {};  // compare the decision counters, not the byte volumes
    return s;
  };
  const RmiStatsSnapshot first = run_burst();
  const RmiStatsSnapshot second = run_burst();
  EXPECT_GT(first.sheds, 0u);
  EXPECT_EQ(first, second);
}

// A credit stall spends part of the call's budget, so the deadline is
// checked again before anything is serialized — for both entry points.
// The refused call was never sent, so it must not hold one of the callee's
// two modelled inbox slots: the next plain call still finds one free.
TEST_F(OverloadTest, AsyncCallRechecksItsDeadlineAfterACreditStall) {
  ExecutorConfig exec;
  exec.inbox_bound = 2;
  exec.inbox_highwater = 1;
  exec.credit_stall_ns = 200'000;
  exec.admission_service_ns = SimTime::seconds(1).as_nanos();
  boot(2, exec);
  const auto mid = sys->define_method(
      "sink", [](CallContext&, auto, auto) { return HandlerResult{}; });
  const auto cs = sys->add_callsite(site(mid, false));
  const RemoteRef ref =
      sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
  sys->start();

  sys->invoke_oneway(0, ref, cs, {});  // fills the inbox to the mark
  try {
    sys->invoke_async(0, ref, cs, {}, {}, CallOptions{.budget_ns = 50'000});
    FAIL() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "call via site 0 (overload.site, class) to machine 1: "
                  "budget exhausted by flow-control backpressure"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sys->stats(0).credit_stalls, 1u);
  EXPECT_EQ(sys->stats(0).deadline_rejects, 1u);
  // Backlog depth still 1: the next call is admitted into the second slot
  // (after one credit stall), and only the call after it is shed.
  sys->invoke_oneway(0, ref, cs, {});
  EXPECT_THROW(sys->invoke_oneway(0, ref, cs, {}), Overload);
  sys->stop();
  EXPECT_EQ(sys->stats(0).credit_stalls, 2u);
  EXPECT_EQ(sys->stats(0).sheds, 1u);
  EXPECT_EQ(sys->stats(0).remote_rpcs, 2u);
  EXPECT_EQ(sys->stats(1).deadline_rejects, 0u);  // never sent
}

TEST_F(OverloadTest, OnewayCallRechecksItsDeadlineAfterACreditStall) {
  ExecutorConfig exec;
  exec.inbox_bound = 2;
  exec.inbox_highwater = 1;
  exec.credit_stall_ns = 200'000;
  exec.admission_service_ns = SimTime::seconds(1).as_nanos();
  boot(2, exec);
  std::atomic<int> ran{0};
  const auto mid = sys->define_method("sink", [&](CallContext&, auto, auto) {
    ++ran;
    return HandlerResult{};
  });
  const auto cs = sys->add_callsite(site(mid, false));
  const RemoteRef ref =
      sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
  sys->start();

  sys->invoke_oneway(0, ref, cs, {});  // fills the inbox to the mark
  try {
    sys->invoke_oneway(0, ref, cs, {}, {}, CallOptions{.budget_ns = 50'000});
    FAIL() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "oneway call via site 0 (overload.site, class) to machine "
                  "1: budget exhausted by flow-control backpressure"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sys->stats(0).credit_stalls, 1u);
  EXPECT_EQ(sys->stats(0).deadline_rejects, 1u);
  // Backlog depth still 1: the next call is admitted into the second slot
  // (after one credit stall), and only the call after it is shed.
  sys->invoke_oneway(0, ref, cs, {});
  EXPECT_THROW(sys->invoke_oneway(0, ref, cs, {}), Overload);
  sys->stop();
  EXPECT_EQ(ran.load(), 2);  // the refused and the shed call never arrived
  EXPECT_EQ(sys->stats(0).credit_stalls, 2u);
  EXPECT_EQ(sys->stats(0).sheds, 1u);
  EXPECT_EQ(sys->stats(0).remote_rpcs, 2u);
  EXPECT_EQ(sys->stats(1).deadline_rejects, 0u);  // never sent
}

// ---- accounting across call modes -------------------------------------------

// One call, one object argument, through each entry point: a oneway call
// differs from invoke_async only in its reply, never in what the request
// costs, and a local oneway clones its argument exactly like a local
// invoke.
TEST_F(OverloadTest, EveryCallModeAccountsTheRequestAlike) {
  struct Probe {
    std::uint64_t request_bytes = 0;
    std::int64_t caller_advance_ns = 0;
    RmiStatsSnapshot site;
  };
  auto run = [&](std::uint16_t target_machine, bool oneway) {
    boot(2);
    // A remote handler waits until the request has been measured, so no
    // reply traffic can land in the caller's numbers.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    if (target_machine == 0) release.set_value();
    const auto mid = sys->define_method("sink", [&](CallContext&, auto, auto) {
      released.wait();
      return HandlerResult{};
    });
    CompiledCallSite cs = site(mid, false);
    cs.plan->args.push_back(serial::make_dynamic_node(point_id));
    const auto cs_id = sys->add_callsite(std::move(cs));
    const RemoteRef ref = sys->export_object(
        target_machine,
        cluster->machine(target_machine).heap().alloc(point_id));
    sys->start();

    const ObjRef arg = make_point(cluster->machine(0).heap(), 1.5, -2.5);
    const std::uint64_t bytes0 = cluster->stats().bytes;
    const std::int64_t t0 = cluster->machine(0).clock().now().as_nanos();
    RmiFuture f;
    if (oneway) {
      sys->invoke_oneway(0, ref, cs_id, std::array{arg});
    } else {
      f = sys->invoke_async(0, ref, cs_id, std::array{arg});
    }
    Probe p;
    p.request_bytes = cluster->stats().bytes - bytes0;
    p.caller_advance_ns = cluster->machine(0).clock().now().as_nanos() - t0;
    if (target_machine != 0) release.set_value();
    if (f.valid()) f.get();
    sys->stop();
    p.site = sys->callsite_stats(cs_id);
    return p;
  };

  const Probe async_remote = run(1, false);
  const Probe oneway_remote = run(1, true);
  EXPECT_GT(async_remote.request_bytes, 0u);
  EXPECT_EQ(async_remote.request_bytes, oneway_remote.request_bytes);
  EXPECT_GT(async_remote.caller_advance_ns, 0);
  EXPECT_EQ(async_remote.caller_advance_ns, oneway_remote.caller_advance_ns);
  EXPECT_GT(async_remote.site.serial.serializer_invocations, 0u);
  EXPECT_EQ(async_remote.site.serial, oneway_remote.site.serial);
  EXPECT_EQ(async_remote.site.remote_rpcs, 1u);
  EXPECT_EQ(oneway_remote.site.remote_rpcs, 1u);

  const Probe invoke_local = run(0, false);
  const Probe oneway_local = run(0, true);
  EXPECT_EQ(invoke_local.request_bytes, 0u);  // nothing crossed the wire
  EXPECT_EQ(oneway_local.request_bytes, 0u);
  EXPECT_EQ(invoke_local.site.serial.objects_allocated, 1u);
  EXPECT_GT(invoke_local.site.serial.bytes_copied, 0u);
  EXPECT_EQ(invoke_local.site.serial.objects_allocated,
            oneway_local.site.serial.objects_allocated);
  EXPECT_EQ(invoke_local.site.serial.bytes_copied,
            oneway_local.site.serial.bytes_copied);
  EXPECT_EQ(invoke_local.site.local_rpcs, 1u);
  EXPECT_EQ(oneway_local.site.local_rpcs, 1u);
}

TEST_F(OverloadTest, DefaultConfigurationKeepsEveryRobustnessCounterAtZero) {
  // Byte-identity guard at the unit level: with the default executor
  // configuration the whole overload layer must be inert.
  boot(2);
  const auto mid = sys->define_method(
      "noop", [](CallContext&, auto, auto) { return HandlerResult{}; });
  const auto cs = sys->add_callsite(site(mid, false));
  const RemoteRef ref =
      sys->export_object(1, cluster->machine(1).heap().alloc(point_id));
  sys->start();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sys->invoke(0, ref, cs, {}), nullptr);
  }
  RmiFuture f = sys->invoke_async(0, ref, cs, {});
  EXPECT_EQ(f.get(), nullptr);
  sys->stop();
  for (std::uint16_t m = 0; m < 2; ++m) {
    const auto s = sys->stats(m);
    EXPECT_EQ(s.deadline_rejects, 0u);
    EXPECT_EQ(s.cancels_sent, 0u);
    EXPECT_EQ(s.cancels_honored, 0u);
    EXPECT_EQ(s.sheds, 0u);
    EXPECT_EQ(s.credit_stalls, 0u);
    EXPECT_EQ(s.oneway_calls, 0u);
  }
}

}  // namespace
}  // namespace rmiopt::rmi
