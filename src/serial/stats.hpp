// Event counters for one (de)serialization pass.
//
// The serializers count events; the cost model converts the counts to
// virtual time; the RMI layer aggregates them into per-machine RmiStats
// (the "runtime statistics" columns of the paper's Tables 4, 6 and 8).
#pragma once

#include <cstdint>

#include "serial/cost_model.hpp"
#include "support/field_list.hpp"
#include "support/sim_time.hpp"

namespace rmiopt::serial {

// Every SerialStats counter, declared once (support/field_list.hpp).
#define RMIOPT_SERIAL_STATS_FIELDS(X)                                          \
  X(Counter, serializer_invocations) /* dynamic serialize() calls */           \
  X(Counter, fields_marshaled)       /* scalar fields moved */                 \
  X(Counter, introspected_fields)    /* reflective walks (HEAVY only) */       \
  X(Counter, bytes_copied)           /* bulk payload bytes (send) */           \
  X(Counter, bytes_copied_rx)        /* bulk payload bytes (receive) */        \
  X(Counter, gather_segments)        /* borrowed iovec segments (send) */      \
  X(Counter, gather_bytes_borrowed)  /*   ... their payload volume */          \
  X(Counter, recv_segments)          /* borrowed frame spans (receive) */      \
  X(Counter, recv_bytes_borrowed)    /*   ... their payload volume */          \
  X(Counter, cycle_lookups)          /* cycle-table probes */                  \
  X(Counter, cycle_tables_created)                                             \
  X(Counter, type_info_bytes)        /* wire bytes spent on types */           \
  X(Counter, type_decodes)           /* receiver-side type resolution */       \
  X(Counter, objects_allocated)      /* deserialization allocations */         \
  X(Counter, bytes_allocated)        /*   ... their payload volume */          \
  X(Counter, objects_reused)         /* reuse-cache hits (§3.3) */             \
  X(Counter, objects_freed)          /* graphs released post-call */

struct SerialStats {
  RMIOPT_SERIAL_STATS_FIELDS(RMIOPT_DECLARE_FIELD)

  SerialStats& operator+=(const SerialStats& o) {
    RMIOPT_SERIAL_STATS_FIELDS(RMIOPT_ADD_FIELD)
    return *this;
  }

  // Componentwise equality: two passes (or totals) saw exactly the same
  // events.  The transport-equivalence tests lean on this to assert that
  // a backend swap changes *nothing* the serializers observed.
  friend bool operator==(const SerialStats&, const SerialStats&) = default;

  // Virtual CPU time this pass costs under `m`.
  SimTime cpu_cost(const CostModel& m) const {
    std::int64_t ns = 0;
    ns += static_cast<std::int64_t>(serializer_invocations) * m.serializer_invoke_ns;
    ns += static_cast<std::int64_t>(fields_marshaled) * m.field_marshal_ns;
    ns += static_cast<std::int64_t>(introspected_fields) * m.introspect_field_ns;
    ns += static_cast<std::int64_t>(cycle_lookups) * m.cycle_probe_ns;
    ns += static_cast<std::int64_t>(cycle_tables_created) * m.cycle_table_setup_ns;
    ns += static_cast<std::int64_t>(type_decodes) * m.type_decode_ns;
    ns += static_cast<std::int64_t>(objects_allocated) *
          (m.alloc_ns + m.gc_amortized_ns);
    ns += static_cast<std::int64_t>(objects_freed) * m.free_ns;
    SimTime t = SimTime::nanos(ns) + m.for_bytes_copied(bytes_copied);
    // Scatter-gather send: a borrowed row pays for its gather-list entry,
    // not for a byte copy.  The counters are only ever non-zero when
    // CostModel::zero_copy_send routed serialization into a GatherBuffer,
    // so default-configuration charging is untouched.
    ns = static_cast<std::int64_t>(gather_segments) * m.gather_segment_ns;
    t += SimTime::nanos(ns);
    // Zero-copy receive: rows the reader *borrowed* straight out of the
    // pinned frame were counted into recv_* instead of bytes_copied_rx, so
    // the byte-copy charge disappears for exactly the bytes that were not
    // copied.  A borrowed span pays its gather-list dual (per-segment
    // bookkeeping) plus Kono/Masuda-style light preprocessing ([10], §6)
    // per KB.  All three counters are zero unless
    // CostModel::zero_copy_receive routed the reader into borrow mode, so
    // default-configuration charging is untouched.
    t += m.for_bytes_copied(bytes_copied_rx);
    ns = static_cast<std::int64_t>(recv_segments) * m.gather_segment_ns;
    ns += static_cast<std::int64_t>(
        m.zero_copy_preprocess_ns_per_kb *
        (static_cast<double>(recv_bytes_borrowed) / 1024.0));
    t += SimTime::nanos(ns);
    return t;
  }
};

}  // namespace rmiopt::serial
