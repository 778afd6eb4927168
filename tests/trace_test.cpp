// Tests for the virtual-time trace recorder (src/trace/): the
// zero-perturbation contract (attaching a recorder observes the
// simulation, never moves it), event/counter agreement, the per-call-site
// profile, per-call-site statistics under concurrent dispatch, and the
// Chrome trace_event exporter.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "apps/microbench.hpp"
#include "apps/webserver.hpp"
#include "net/fault.hpp"
#include "rmi/runtime.hpp"
#include "trace/profile.hpp"
#include "trace/recorder.hpp"

namespace rmiopt {
namespace {

using codegen::OptLevel;

// Zero perturbation, app by app, is AppConfig.EveryAppHonorsItsRunEnv.

// ---- events agree with the runtime counters --------------------------------

TEST(Trace, CallSpansMatchTheRmiCounters) {
  trace::MemoryRecorder rec;
  apps::WebserverConfig cfg;
  cfg.requests = 50;
  cfg.env.recorder = &rec;
  const apps::RunResult r =
      apps::run_webserver(OptLevel::SiteReuseCycle, cfg);

  const auto calls = rec.events_of(trace::EventKind::Call);
  EXPECT_EQ(calls.size(), r.total.remote_rpcs);
  EXPECT_EQ(rec.events_of(trace::EventKind::LocalCall).size(),
            r.total.local_rpcs);
  EXPECT_EQ(rec.events_of(trace::EventKind::HandlerRun).size(),
            r.total.remote_rpcs);
  for (const auto& e : calls) {
    EXPECT_EQ(e.track, trace::TrackKind::Machine);
    EXPECT_GT(e.dur_ns, 0);  // a remote call always costs virtual time
    EXPECT_NE(e.callsite, trace::Event::kNoCallsite);
    EXPECT_GT(e.bytes, 0u);  // request + reply payload bytes
  }
  // A healthy run has no reliability events.
  EXPECT_TRUE(rec.events_of(trace::EventKind::Retransmit).empty());
  EXPECT_TRUE(rec.events_of(trace::EventKind::DedupDrop).empty());
  EXPECT_TRUE(rec.events_of(trace::EventKind::CallTimeout).empty());
}

TEST(Trace, SerializePassesCarryRealTimeAndVirtualCost) {
  trace::MemoryRecorder rec;
  apps::ArrayBenchConfig cfg;
  cfg.iterations = 10;
  cfg.env.recorder = &rec;
  apps::run_array_bench(OptLevel::SiteReuseCycle, cfg);

  const auto ser = rec.events_of(trace::EventKind::Serialize);
  const auto deser = rec.events_of(trace::EventKind::Deserialize);
  ASSERT_FALSE(ser.empty());
  ASSERT_FALSE(deser.empty());
  std::uint64_t bytes = 0;
  for (const auto& e : ser) {
    EXPECT_GT(e.dur_ns, 0);   // virtual CPU cost of the pass
    EXPECT_GT(e.real_ns, 0);  // wall-clock duration of the pass
    bytes += e.bytes;
  }
  EXPECT_GT(bytes, 0u);  // the request passes copied the matrix rows
}

// ---- fault fidelity ---------------------------------------------------------

TEST(Trace, FaultEventsAppearOnlyOnTheFaultyLink) {
  trace::MemoryRecorder rec;
  apps::WebserverConfig cfg;
  cfg.requests = 300;
  cfg.env.faults.seed = 99;
  cfg.env.faults.set_link(0, 1, {.drop = 0.05, .duplicate = 0.05});
  cfg.env.recorder = &rec;
  const apps::RunResult r =
      apps::run_webserver(OptLevel::SiteReuseCycle, cfg);
  EXPECT_DOUBLE_EQ(r.check,
                   static_cast<double>(cfg.requests * cfg.page_size));

  const auto retrans = rec.events_of(trace::EventKind::Retransmit);
  ASSERT_GT(r.net.retransmits, 0u);  // the seed must actually drop frames
  EXPECT_EQ(retrans.size(), r.net.retransmits);
  for (const auto& e : retrans) {
    EXPECT_EQ(e.track, trace::TrackKind::Link);
    EXPECT_EQ(e.machine, 0);  // only the faulty direction retransmits
    EXPECT_EQ(e.peer, 1);
    EXPECT_GT(e.dur_ns, 0);  // the span covers the charged backoff
  }
  ASSERT_GT(r.net.dedup_hits, 0u);  // and duplicate frames were suppressed
  const auto dedup = rec.events_of(trace::EventKind::DedupDrop);
  EXPECT_EQ(dedup.size(), r.net.dedup_hits);
  for (const auto& e : dedup) {
    EXPECT_EQ(e.machine, 0);
    EXPECT_EQ(e.peer, 1);
  }
}

// ---- per-call-site profile --------------------------------------------------

TEST(Trace, ProfileAggregatesInvocationsAndLatency) {
  trace::MemoryRecorder rec;
  apps::WebserverConfig cfg;
  cfg.requests = 50;
  cfg.env.recorder = &rec;
  const apps::RunResult r =
      apps::run_webserver(OptLevel::SiteReuseCycle, cfg);

  const auto rows = trace::build_profile(rec.events());
  ASSERT_FALSE(rows.empty());
  std::uint64_t invocations = 0, remote = 0;
  for (const auto& row : rows) {
    invocations += row.invocations;
    remote += row.remote;
    EXPECT_LE(row.p50_ns, row.p95_ns);
    EXPECT_LE(row.p95_ns, row.max_ns);
  }
  EXPECT_EQ(invocations, r.total.remote_rpcs + r.total.local_rpcs);
  EXPECT_EQ(remote, r.total.remote_rpcs);

  const std::string table = trace::render_profile(
      rows, [](std::uint32_t id) { return "cs" + std::to_string(id); });
  EXPECT_NE(table.find("cs"), std::string::npos);
  EXPECT_NE(table.find("p95"), std::string::npos);
}

// ---- per-call-site statistics under concurrent dispatch ---------------------

// The paper gathered its per-call-site tables "on a separate run with an
// instrumented runtime"; here the per-site ledger must stay consistent
// with the global one even when handlers execute on a worker pool and
// callers race: summing callsite_stats over every site reproduces
// total_stats exactly.
TEST(TraceProfile, SnapshotTotalsEqualTheSumOverCallsitesUnderWorkers) {
  om::TypeRegistry types;
  const om::ClassId cls =
      types.define_class("Payload", {{"x", om::TypeKind::Int}});
  net::Cluster cluster(3, types);
  rmi::ExecutorConfig exec;
  exec.dispatch_workers = 2;
  rmi::RmiSystem sys(cluster, types, exec);

  const auto mid = sys.define_method(
      "noop", [](rmi::CallContext&, auto, auto) {
        return rmi::HandlerResult{};
      });
  auto make_site = [&](const char* name, bool with_arg) {
    rmi::CompiledCallSite cs;
    cs.method_id = mid;
    cs.plan = std::make_unique<serial::CallSitePlan>();
    cs.plan->name = name;
    cs.plan->needs_cycle_table = true;
    if (with_arg) cs.plan->args.push_back(serial::make_dynamic_node(cls));
    return sys.add_callsite(std::move(cs));
  };
  const auto site_a = make_site("siteA", /*with_arg=*/true);
  const auto site_b = make_site("siteB", /*with_arg=*/false);
  const rmi::RemoteRef ref =
      sys.export_object(1, cluster.machine(1).heap().alloc(cls));
  sys.start();

  std::thread t0([&] {
    om::Heap& h = cluster.machine(0).heap();
    const om::ObjRef arg = h.alloc(cls);
    for (int i = 0; i < 20; ++i) {
      sys.invoke(0, ref, site_a, std::array{arg});
      sys.invoke(0, ref, site_b, {});
    }
    h.free(arg);
  });
  std::thread t2([&] {
    om::Heap& h = cluster.machine(2).heap();
    const om::ObjRef arg = h.alloc(cls);
    for (int i = 0; i < 20; ++i) {
      sys.invoke(2, ref, site_a, std::array{arg});
      sys.invoke(1, ref, site_b, {});  // local at the callee
    }
    h.free(arg);
  });
  t0.join();
  t2.join();
  sys.stop();

  rmi::RmiStatsSnapshot sum;
  for (std::uint32_t i = 0; i < sys.callsite_count(); ++i) {
    sum += sys.callsite_stats(i);
  }
  const rmi::RmiStatsSnapshot total = sys.total_stats();
  EXPECT_EQ(sum, total);
  EXPECT_EQ(total.remote_rpcs, 60u);
  EXPECT_EQ(total.local_rpcs, 20u);
}

// ---- Chrome trace exporter --------------------------------------------------

TEST(Trace, ChromeTraceJsonHasNamedTracksAndMonotoneTimestamps) {
  trace::MemoryRecorder rec;
  apps::WebserverConfig cfg;
  cfg.requests = 30;
  cfg.env.recorder = &rec;
  apps::run_webserver(OptLevel::SiteReuseCycle, cfg);

  const std::string json = trace::chrome_trace_json(rec.events());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"machine 0\""), std::string::npos);
  EXPECT_NE(json.find("\"link 0->1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants

  // Per-track virtual timestamps are sorted: within each (pid, tid) the
  // exporter emits monotonically non-decreasing `ts`.  Walk the emitted
  // objects (flat except for "args") and track the last ts per tid.
  std::map<long long, double> last_ts;
  std::size_t timed_events = 0;
  for (std::size_t pos = json.find("{\"name\""); pos != std::string::npos;
       pos = json.find("{\"name\"", pos + 1)) {
    const std::size_t end = json.find("}}", pos);
    ASSERT_NE(end, std::string::npos);
    const std::string obj = json.substr(pos, end - pos);
    const std::size_t tid_at = obj.find("\"tid\":");
    const std::size_t ts_at = obj.find("\"ts\":");
    if (tid_at == std::string::npos || ts_at == std::string::npos) continue;
    const long long tid = std::strtoll(obj.c_str() + tid_at + 6, nullptr, 10);
    const double ts = std::strtod(obj.c_str() + ts_at + 5, nullptr);
    EXPECT_GE(ts, 0.0);
    auto [it, fresh] = last_ts.try_emplace(tid, ts);
    if (!fresh) {
      EXPECT_LE(it->second, ts) << "track " << tid << " went backwards";
      it->second = ts;
    }
    ++timed_events;
  }
  EXPECT_GT(timed_events, 0u);
  EXPECT_GT(last_ts.size(), 2u);  // several machine + link tracks
}

}  // namespace
}  // namespace rmiopt
