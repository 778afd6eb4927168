// rmibench: the repository's two-clock RMI benchmark.
//
//   rmibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process runs one workload (see rigs.hpp): it sets the rig up
// several times (timing each set-up), warms it, then issues RMIs in a
// closed loop from a single caller for `--seconds`, timing every invoke()
// from outside.  It checks every reply, prints a readable summary and, as
// the last line of stdout, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics (host latency, throughput, CPU,
// virtual time, set-up time, memory).  --trace 1 reports the per-layer
// split instead: the same loop runs once untraced and once with a
// trace::MemoryRecorder and a frame probe attached, the two runs must
// agree exactly on virtual time and every counter, and the traced run's
// spans, probe captures and counters give the per-layer numbers.  METRICS.md
// maps every metric to its layer.
//
// Exit status: 0 when every check passed, 1 when one failed (the JSON
// still says which run), 2 on bad arguments.
#include <sched.h>
#include <sys/resource.h>


#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "rigs.hpp"
#include "stats.hpp"
#include "support/rng.hpp"
#include "trace/recorder.hpp"
#include "wire/framing.hpp"

namespace rmibench {
namespace {

using namespace rmiopt;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kBatch = 256;  // RMIs between clock and trace reads
constexpr int kSetups = 101;           // set-ups timed per run (median)
constexpr std::uint64_t kWarmupBatches = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: rmibench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const std::string& w : workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stoi(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return std::nullopt;
        a.trace = val == "1";
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  const auto& names = workload_names();
  if (!have_workload ||
      std::find(names.begin(), names.end(), a.workload) == names.end() ||
      a.seconds < 1 || a.seconds > 120) {
    return std::nullopt;
  }
  return a;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---- host placement ---------------------------------------------------------

// Runs the whole process (the caller and both dispatchers, which inherit
// the mask) on one host CPU, the last one it may use.  Left to the
// scheduler the three threads land on one core or spread over several,
// and on a virtual machine the cross-core wake-ups cost about twice as
// much and vary from run to run, so each run kept whichever placement it
// drew.  On one core every hand-off is a thread switch, the same in every
// run, and host time per RMI is the CPU work of the whole call path.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) last = c;
  }
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  sched_setaffinity(0, sizeof one, &one);
}

// ---- counters ---------------------------------------------------------------

// Everything the simulation counts, read at a quiescent point (after
// Rig::fence).  Two runs of the same inputs must agree on all of it.
struct Counters {
  rmi::RmiStatsSnapshot rmi;
  net::NetworkStats::Snapshot net;
  std::int64_t clock0_ns = 0;
  std::int64_t clock1_ns = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_alloc_bytes = 0;
  std::uint64_t heap_frees = 0;

  friend bool operator==(const Counters&, const Counters&) = default;
};

Counters read_counters(Rig& rig) {
  Counters c;
  c.rmi = rig.sys().total_stats();
  c.net = rig.cluster().stats();
  c.clock0_ns = rig.cluster().machine(0).clock().now().as_nanos();
  c.clock1_ns = rig.cluster().machine(1).clock().now().as_nanos();
  for (std::size_t m = 0; m < 2; ++m) {
    const om::HeapStats& h = rig.cluster().machine(m).heap().stats();
    c.heap_allocs += h.objects_allocated.load();
    c.heap_alloc_bytes += h.bytes_allocated.load();
    c.heap_frees += h.objects_freed.load();
  }
  return c;
}

// The counters the per-layer metrics divide by the RMI count.
struct Counts {
  std::uint64_t serializer_invocations = 0;
  std::uint64_t cycle_lookups = 0;
  std::uint64_t type_info_bytes = 0;
  std::uint64_t objects_reused = 0;
  std::uint64_t objects_allocated = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_alloc_bytes = 0;
  std::uint64_t heap_frees = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t remote_rpcs = 0;
  std::uint64_t call_timeouts = 0;

  explicit Counts(const Counters& c)
      : serializer_invocations(c.rmi.serial.serializer_invocations),
        cycle_lookups(c.rmi.serial.cycle_lookups),
        type_info_bytes(c.rmi.serial.type_info_bytes),
        objects_reused(c.rmi.serial.objects_reused),
        objects_allocated(c.rmi.serial.objects_allocated),
        heap_allocs(c.heap_allocs),
        heap_alloc_bytes(c.heap_alloc_bytes),
        heap_frees(c.heap_frees),
        messages(c.net.messages),
        bytes(c.net.bytes),
        retransmits(c.net.retransmits),
        remote_rpcs(c.rmi.remote_rpcs),
        call_timeouts(c.rmi.call_timeouts) {}

  Counts operator-(const Counts& o) const {
    Counts d = *this;
    d.serializer_invocations -= o.serializer_invocations;
    d.cycle_lookups -= o.cycle_lookups;
    d.type_info_bytes -= o.type_info_bytes;
    d.objects_reused -= o.objects_reused;
    d.objects_allocated -= o.objects_allocated;
    d.heap_allocs -= o.heap_allocs;
    d.heap_alloc_bytes -= o.heap_alloc_bytes;
    d.heap_frees -= o.heap_frees;
    d.messages -= o.messages;
    d.bytes -= o.bytes;
    d.retransmits -= o.retransmits;
    d.remote_rpcs -= o.remote_rpcs;
    d.call_timeouts -= o.call_timeouts;
    return d;
  }
};

// ---- the timed loop ---------------------------------------------------------

// Invoke latencies in a fixed buffer that is written in full up front, so
// the benchmark's own memory does not grow with the RMI rate (peak_rss_mb
// stays the program's).  Past capacity a seeded reservoir keeps a uniform
// sample of every latency seen.
class Latencies {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 21;

  void add(double us) {
    sum_ += us;
    if (seen_ < kCapacity) {
      kept_[seen_] = us;
    } else if (const std::uint64_t j = rng_.next_below(seen_ + 1);
               j < kCapacity) {
      kept_[j] = us;
    }
    ++seen_;
  }

  double mean() const { return sum_ / static_cast<double>(seen_); }

  // Sorts the kept samples in place; call once, after the last add().
  const std::vector<double>& sorted() {
    kept_.resize(std::min<std::uint64_t>(seen_, kCapacity));
    std::sort(kept_.begin(), kept_.end());
    return kept_;
  }

 private:
  std::vector<double> kept_ = std::vector<double>(kCapacity, 0.0);
  std::uint64_t seen_ = 0;
  double sum_ = 0.0;
  SplitMix64 rng_{0x5eed};
};

struct Segment {
  Latencies lat;  // one per invoke()
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  // Caller-clock advance over every batch but the first, which may still
  // carry the tail of whatever preceded the loop (a fence, the warm-up).
  std::int64_t steady_virtual_ns = 0;
  std::uint64_t steady_calls = 0;
  std::vector<double> batch_mean_us;

  double virtual_us_per_rmi() const {
    // One division of two exact integers: the same per-batch cost gives
    // the same double whatever the batch count.
    return static_cast<double>(steady_virtual_ns) /
           (static_cast<double>(steady_calls) * 1e3);
  }
};

// Runs whole batches of kBatch RMIs: exactly `batches` of them, or (when
// `batches` is 0) as many as start before `deadline`, but at least two.
// `after_batch` runs between batches, outside the timed invokes.
template <typename AfterBatch>
Segment run_batches(Rig& rig, std::uint64_t& next_call,
                    Clock::time_point deadline, std::uint64_t batches,
                    AfterBatch after_batch) {
  Segment s;
  net::VirtualClock& clock0 = rig.cluster().machine(0).clock();
  std::int64_t steady_start = 0;
  const double cpu0 = cpu_seconds();
  const auto t_start = Clock::now();
  for (std::uint64_t b = 0;; ++b) {
    if (batches != 0 ? b == batches : (b >= 2 && Clock::now() >= deadline)) {
      break;
    }
    if (b == 1) steady_start = clock0.now().as_nanos();
    double batch_us = 0.0;
    for (std::uint64_t j = 0; j < kBatch; ++j) {
      const auto t0 = Clock::now();
      try {
        rig.call(next_call);
      } catch (const std::exception& e) {
        if (s.failed++ == 0) s.first_error = e.what();
      }
      const double us = us_between(t0, Clock::now());
      ++next_call;
      s.lat.add(us);
      batch_us += us;
    }
    s.calls += kBatch;
    s.batch_mean_us.push_back(batch_us / static_cast<double>(kBatch));
    if (b >= 1) s.steady_calls += kBatch;
    after_batch();
  }
  s.steady_virtual_ns = clock0.now().as_nanos() - steady_start;
  s.wall_s = us_between(t_start, Clock::now()) / 1e6;
  s.cpu_s = cpu_seconds() - cpu0;
  return s;
}

Segment run_batches(Rig& rig, std::uint64_t& next_call,
                    Clock::time_point deadline, std::uint64_t batches) {
  return run_batches(rig, next_call, deadline, batches, [] {});
}

void warm_up(Rig& rig, std::uint64_t& next_call) {
  run_batches(rig, next_call, Clock::time_point{}, kWarmupBatches);
}

// ---- set-up -----------------------------------------------------------------

struct Setups {
  std::vector<double> seconds;
  std::map<std::string, std::vector<double>> compile;  // metric -> samples
  std::uint64_t fixpoint_iterations = 0;
  std::unique_ptr<Rig> rig;  // the last one, left running
};

// Sets the workload up kSetups times from scratch: model build, compile,
// cluster, start(), exports and binds.  Keeps the last rig.
Setups set_up(const Args& args, const RigOptions& opts) {
  Setups s;
  for (int k = 0; k < kSetups; ++k) {
    s.rig.reset();  // teardown is not part of the set-up time
    const auto t0 = Clock::now();
    s.rig = make_rig(args.workload, opts);
    s.seconds.push_back(us_between(t0, Clock::now()) / 1e6);

    const driver::CompileStats& cs = s.rig->compile_stats();
    s.compile["driver.compile_ms"].push_back(s.rig->compile_ms());
    for (driver::PassId p :
         {driver::PassId::Verify, driver::PassId::Heap, driver::PassId::Cycle,
          driver::PassId::Escape, driver::PassId::PlanGen}) {
      s.compile["driver.pass." + std::string(driver::to_string(p)) + "_us"]
          .push_back(static_cast<double>(cs.pass(p).wall_ns) / 1e3);
    }
    s.fixpoint_iterations = cs.fixpoint_iterations;
  }
  return s;
}

// ---- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void fail(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check_segment(const char* label, const Segment& s) {
    attempted += s.calls;
    failed += s.failed;
    if (s.failed != 0) {
      fail(std::string(label) + ": " + std::to_string(s.failed) +
           " invokes threw, first: " + s.first_error);
    }
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int emit(const Args& args, const Report& r) {
  std::printf("\n%-32s %22s  %s\n", "metric", "value", "unit");
  for (const Metric& m : r.metrics) {
    std::printf("%-32s %22.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : r.problems) {
    std::printf("CHECK FAILED (%s): %s\n", args.workload.c_str(), p.c_str());
  }
  std::string out = "{\"correct\": " +
                    std::string(r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

void log_segment(const char* label, const Segment& s) {
  std::printf("%-9s %8llu RMIs in %.3f s, mean %.3f us, batch spread %.4f\n",
              label, static_cast<unsigned long long>(s.calls), s.wall_s,
              s.lat.mean(),
              s.batch_mean_us.size() >= 2 ? quartile_spread(s.batch_mean_us)
                                          : 0.0);
}

// ---- --trace 0 --------------------------------------------------------------

int run_end_to_end(const Args& args) {
  Report r;
  Setups setups = set_up(args, RigOptions{.seed = args.seed});
  Rig& rig = *setups.rig;
  std::printf("workload %s, seed %llu: %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), rig.inputs().c_str());

  std::uint64_t next_call = 0;
  warm_up(rig, next_call);
  Segment s = run_batches(
      rig, next_call, Clock::now() + std::chrono::seconds(args.seconds), 0);
  log_segment("measured", s);
  r.check_segment("measured", s);
  if (const std::string p = rig.check(next_call); !p.empty()) r.fail(p);

  const std::vector<double>& sorted = s.lat.sorted();
  const auto calls = static_cast<double>(s.calls);
  r.add("rmi_p50_us", percentile_sorted(sorted, 0.50), "us");
  r.add("rmi_p90_us", percentile_sorted(sorted, 0.90), "us");
  r.add("rmi_per_s", calls / s.wall_s, "1/s");
  r.add("cpu_us_per_rmi", s.cpu_s * 1e6 / calls, "us");
  r.add("virtual_us_per_rmi", s.virtual_us_per_rmi(), "virtual_us");
  r.add("setup_s", median(setups.seconds), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("completed_frac", (calls - static_cast<double>(s.failed)) / calls,
        "ratio");
  return emit(args, r);
}

// ---- --trace 1 --------------------------------------------------------------

struct LayerTotals {
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  std::uint64_t image_bytes = 0;
  std::uint64_t probed_messages = 0;
  std::uint64_t decoded_messages = 0;
  std::int64_t serialize_ns = 0;
  std::int64_t deserialize_ns = 0;
  std::int64_t encode_ns = 0;
  std::int64_t decode_ns = 0;
};

// What the traced run's recorder and frame probe saw, drained between
// batches.  The loop is idle then, except that the last reply's
// ReplyDeliver instant may still be on its way in (see METRICS.md).
class LayerTrace {
 public:
  trace::MemoryRecorder recorder;
  LayerTotals totals;

  net::Transport::FrameProbe probe() {
    return [this](std::uint16_t, std::uint16_t, const wire::Frame& f) {
      std::scoped_lock lock(mu_);
      frames_.push_back(f);
    };
  }

  // Folds everything recorded since the last drain into the totals and
  // replays the captured frames through the wire codec.
  void drain() {
    const std::vector<trace::Event> events = recorder.events();
    recorder.clear();
    LayerTotals& t = totals;
    for (const trace::Event& e : events) {
      if (e.kind == trace::EventKind::Serialize) {
        t.serialize_ns += e.real_ns;
      } else if (e.kind == trace::EventKind::Deserialize) {
        t.deserialize_ns += e.real_ns;
      }
    }
    t.events += events.size();

    std::vector<wire::Frame> frames;
    {
      std::scoped_lock lock(mu_);
      frames.swap(frames_);
    }
    std::vector<ByteBuffer> images;
    images.reserve(frames.size());
    const auto t0 = Clock::now();
    for (const wire::Frame& f : frames) images.push_back(wire::encode_frame(f));
    const auto t1 = Clock::now();
    for (ByteBuffer& img : images) {
      img.rewind();
      t.decoded_messages += wire::decode_frame(img).messages.size();
    }
    const auto t2 = Clock::now();
    t.encode_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    t.decode_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count();
    t.frames += frames.size();
    for (const wire::Frame& f : frames) t.probed_messages += f.messages.size();
    for (const ByteBuffer& img : images) t.image_bytes += img.size();
  }

 private:
  std::mutex mu_;
  std::vector<wire::Frame> frames_;
};

// One run of the loop bracketed by fences: counters before (c1), after
// (c2), and after one more fence (c3), so c3 - c2 is one fence's share.
struct Bracketed {
  Segment seg;
  Counters c1, c2, c3;
  std::string problem;
};

template <typename AfterBatch>
Bracketed bracketed_run(Rig& rig, Clock::time_point deadline,
                        std::uint64_t batches, AfterBatch after_batch,
                        LayerTrace* trace) {
  Bracketed b;
  std::uint64_t next_call = 0;
  warm_up(rig, next_call);
  rig.fence();
  if (trace != nullptr) {
    trace->drain();  // set-up, warm-up and fence traffic
    trace->totals = {};
  }
  b.c1 = read_counters(rig);
  b.seg = run_batches(rig, next_call, deadline, batches, after_batch);
  rig.fence();
  b.c2 = read_counters(rig);
  rig.fence();
  b.c3 = read_counters(rig);
  b.problem = rig.check(next_call);
  return b;
}

int run_layers(const Args& args) {
  Report r;
  Setups setups = set_up(args, RigOptions{.seed = args.seed});
  std::printf("workload %s, seed %llu: %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              setups.rig->inputs().c_str());

  // Untraced: half the time budget fixes the batch count.
  Bracketed plain = bracketed_run(
      *setups.rig,
      Clock::now() + std::chrono::milliseconds(args.seconds * 500), 0, [] {},
      nullptr);
  setups.rig.reset();
  const std::uint64_t batches = plain.seg.batch_mean_us.size();

  // Traced: the same batches with the recorder and probe attached.
  LayerTrace lt;
  std::unique_ptr<Rig> rig =
      make_rig(args.workload, RigOptions{.seed = args.seed,
                                         .time_handlers = true,
                                         .recorder = &lt.recorder,
                                         .frame_probe = lt.probe()});
  const Bracketed traced = bracketed_run(
      *rig, Clock::time_point{}, batches, [&] { lt.drain(); }, &lt);
  const std::int64_t handler_ns = rig->handler_ns();
  rig.reset();

  log_segment("untraced", plain.seg);
  log_segment("traced", traced.seg);
  r.check_segment("untraced", plain.seg);
  r.check_segment("traced", traced.seg);
  if (!plain.problem.empty()) r.fail("untraced: " + plain.problem);
  if (!traced.problem.empty()) r.fail("traced: " + traced.problem);

  const LayerTotals& t = lt.totals;

  // An observer never changes the run.
  if (!(plain.c1 == traced.c1 && plain.c2 == traced.c2 &&
        plain.c3 == traced.c3)) {
    r.fail("tracing changed a counter or a virtual clock");
  }
  if (plain.seg.steady_virtual_ns != traced.seg.steady_virtual_ns) {
    r.fail("tracing changed virtual time per RMI");
  }
  std::printf("virtual_us_per_rmi %.6f untraced, %.6f traced\n",
              plain.seg.virtual_us_per_rmi(), traced.seg.virtual_us_per_rmi());

  // Loop counts: (fence .. fence) minus the closing fence's own share.
  const Counts d =
      (Counts(traced.c2) - Counts(traced.c1)) -
      (Counts(traced.c3) - Counts(traced.c2));
  const std::uint64_t n = traced.seg.calls;
  const auto per = [n](double v) { return v / static_cast<double>(n); };
  if (d.remote_rpcs != n) r.fail("remote rpc count differs from RMIs issued");
  if (t.decoded_messages != t.probed_messages) {
    r.fail("wire replay decoded a different message count");
  }

  for (const auto& [name, samples] : setups.compile) {
    r.add(name, median(samples), name == "driver.compile_ms" ? "ms" : "us");
  }
  r.add("driver.fixpoint_iterations",
        static_cast<double>(setups.fixpoint_iterations), "count");

  LayerSplit split;
  split.wall_us = traced.seg.lat.mean();
  split.serialize_us = per(static_cast<double>(t.serialize_ns) / 1e3);
  split.deserialize_us = per(static_cast<double>(t.deserialize_ns) / 1e3);
  split.handler_us = per(static_cast<double>(handler_ns) / 1e3);
  split.frames = per(static_cast<double>(t.frames));
  const auto per_frame = [&](std::int64_t ns) {
    return t.frames == 0 ? 0.0
                               : static_cast<double>(ns) /
                                     static_cast<double>(t.frames);
  };
  split.encode_ns = per_frame(t.encode_ns);
  split.decode_ns = per_frame(t.decode_ns);

  r.add("serial.write_us_per_rmi", split.serialize_us, "us");
  r.add("serial.read_us_per_rmi", split.deserialize_us, "us");
  r.add("serial.invocations_per_rmi", per(d.serializer_invocations), "count");
  r.add("serial.cycle_lookups_per_rmi", per(d.cycle_lookups), "count");
  r.add("serial.type_info_bytes_per_rmi", per(d.type_info_bytes), "B");
  const double touched =
      static_cast<double>(d.objects_reused + d.objects_allocated);
  r.add("serial.reuse_ratio",
        touched == 0 ? 0.0 : static_cast<double>(d.objects_reused) / touched,
        "ratio");

  r.add("objmodel.allocs_per_rmi", per(d.heap_allocs), "count");
  r.add("objmodel.alloc_bytes_per_rmi", per(d.heap_alloc_bytes), "B");
  r.add("objmodel.frees_per_rmi", per(d.heap_frees), "count");

  r.add("wire.frames_per_rmi", split.frames, "count");
  r.add("wire.frame_bytes_per_rmi", per(t.image_bytes), "B");
  r.add("wire.encode_ns_per_frame", split.encode_ns, "ns");
  r.add("wire.decode_ns_per_frame", split.decode_ns, "ns");
  r.add("wire.retransmits", static_cast<double>(d.retransmits), "count");

  r.add("net.messages_per_rmi", per(d.messages), "count");
  r.add("net.bytes_per_rmi", per(d.bytes), "B");

  r.add("rmi.handler_us_per_rmi", split.handler_us, "us");
  r.add("rmi.residual_us_per_rmi", residual_us(split), "us");
  r.add("rmi.invoke_p99_us", percentile_sorted(plain.seg.lat.sorted(), 0.99),
        "us");
  r.add("rmi.remote_rpcs", static_cast<double>(d.remote_rpcs), "count");
  r.add("rmi.call_timeouts", static_cast<double>(d.call_timeouts), "count");

  r.add("trace.events_per_rmi", per(t.events), "count");
  r.add("trace.overhead_pct",
        (traced.seg.lat.mean() / plain.seg.lat.mean() - 1.0) * 100.0, "%");
  return emit(args, r);
}

}  // namespace
}  // namespace rmibench

int main(int argc, char** argv) {
  const std::optional<rmibench::Args> args = rmibench::parse(argc, argv);
  if (!args) {
    rmibench::usage();
    return 2;
  }
  rmibench::pin_to_one_cpu();
  try {
    return args->trace ? rmibench::run_layers(*args)
                       : rmibench::run_end_to_end(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rmibench: %s\n", e.what());
    return 1;
  }
}
