// Per-machine RMI statistics — the counters behind the paper's
// "runtime statistics" tables (Tables 4, 6 and 8) — and the per-call-site
// profile the runtime exports back to the driver for profile-guided
// re-specialization.
#pragma once

#include <map>
#include <mutex>

#include "serial/stats.hpp"
#include "support/field_list.hpp"

namespace rmiopt::rmi {

// One profiled static call site, keyed by its *compile-time tag* (the
// stable id the application used to wire the site), so the driver can
// match profile rows against CompiledProgram decisions without knowing
// runtime call-site ids.
struct CallSiteProfileRow {
  std::uint32_t tag = 0;
  std::uint64_t invocations = 0;  // local + remote rpcs through the site
  std::uint64_t remote_rpcs = 0;
  std::uint64_t reused_objects = 0;  // reuse-cache hits (§3.3)
  std::uint64_t cycle_lookups = 0;   // runtime cycle-table probes (§3.2)
  std::uint64_t bytes_allocated = 0;  // deserialization allocation volume
};

// What one run taught us about every static call site — the feedback
// input of driver::respecialize.  Exported by RmiSystem::export_profile
// and carried in apps::RunResult.
struct CallSiteProfile {
  std::map<std::uint32_t, CallSiteProfileRow> by_tag;

  bool empty() const { return by_tag.empty(); }
  const CallSiteProfileRow* row(std::uint32_t tag) const {
    auto it = by_tag.find(tag);
    return it == by_tag.end() ? nullptr : &it->second;
  }
};

// Every RmiStatsSnapshot field, declared once (support/field_list.hpp).
#define RMIOPT_RMI_STATS_FIELDS(X)                                             \
  X(Counter, local_rpcs)                                                       \
  X(Counter, remote_rpcs)                                                      \
  X(serial::SerialStats, serial)                                               \
  /* Reliability counters (all zero on a healthy run). */                      \
  X(Counter, duplicate_calls)       /* calls suppressed by at-most-once */     \
  X(Counter, replayed_replies)      /* cached replies re-sent verbatim */      \
  X(Counter, stray_replies)         /* replies with no pending call */         \
  X(Counter, call_timeouts)         /* invocations that raised RmiTimeout */   \
  X(Counter, machine_down_failures) /* of which: typed MachineDown */          \
  X(Counter, undeliverable_replies) /* replies lost to a dead link */          \
  X(Counter, reply_cache_pins)      /* evictions skipped: call in flight */    \
  /* Overload-robustness counters (all zero by default). */                    \
  X(Counter, deadline_rejects)      /* calls refused: deadline already past */ \
  X(Counter, cancels_sent)          /* CancelRequests this machine sent */     \
  X(Counter, cancels_honored)       /* handlers/replies abandoned to cancel */ \
  X(Counter, sheds)                 /* calls refused by admission control */   \
  X(Counter, credit_stalls)         /* sends delayed by flow-control credit */ \
  X(Counter, oneway_calls)          /* fire-and-forget invocations sent */

struct RmiStatsSnapshot {
  RMIOPT_RMI_STATS_FIELDS(RMIOPT_DECLARE_FIELD)

  RmiStatsSnapshot& operator+=(const RmiStatsSnapshot& o) {
    RMIOPT_RMI_STATS_FIELDS(RMIOPT_ADD_FIELD)
    return *this;
  }

  friend bool operator==(const RmiStatsSnapshot&,
                         const RmiStatsSnapshot&) = default;

  // "new (MBytes)": allocation volume caused by deserialization (§5.2).
  double deserialization_mbytes() const {
    return static_cast<double>(serial.bytes_allocated) / (1024.0 * 1024.0);
  }
};

// One machine's live counters, under one mutex; readers take a snapshot.
class RmiStats {
 public:
  // ++ one counter, e.g. count(&RmiStatsSnapshot::sheds).
  void count(std::uint64_t RmiStatsSnapshot::*counter) {
    std::scoped_lock lock(mu_);
    ++(snap_.*counter);
  }
  void add_pass(const serial::SerialStats& pass) {
    std::scoped_lock lock(mu_);
    snap_.serial += pass;
  }

  RmiStatsSnapshot snapshot() const {
    std::scoped_lock lock(mu_);
    return snap_;
  }

 private:
  mutable std::mutex mu_;
  RmiStatsSnapshot snap_;
};

}  // namespace rmiopt::rmi
