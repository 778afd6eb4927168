// The pluggable transport layer.
//
// A Transport moves framed messages between two machines and charges the
// virtual cost of doing so.  The Myrinet/GM arithmetic of the paper (§5)
// — send-descriptor overhead, one-way latency, bandwidth, fragmentation —
// lives in the shared base class, so every backend prices traffic
// identically and makespans are backend-independent; what a backend
// chooses is the *mechanism*:
//
//  * SimTransport — the byte-oriented network model: every frame is
//    serialized to its physical image (wire/framing.hpp), "transmitted",
//    decoded at the receiver's NIC, and run through the receiver's
//    per-link dedup window.  This is the default and exercises the
//    framing layer (including its checksum) on every message.
//  * LoopbackTransport — in-process delivery: frames move as structs,
//    no byte image exists.  Proves the runtime above never depends on
//    the frame encoding, and is the natural seat for future co-located
//    (shared-memory) backends.
//  * FaultyTransport — a decorator around either backend that executes a
//    seeded net::FaultPlan: frames are dropped, duplicated, delivered
//    stale (reorder), or bit-flipped, and machines crash at scheduled
//    virtual times.  Its submit() reports the outcome so the session's
//    ARQ can retransmit; every wasted transmission is charged through
//    the same charge_and_schedule path as healthy traffic, keeping runs
//    reproducible seed for seed.
//
// Each transport instance owns its own NetworkStats, so a cluster with
// several backends can report per-transport traffic separately and
// aggregate with NetworkStats::Snapshot::operator+=.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "net/fault.hpp"
#include "serial/cost_model.hpp"
#include "support/field_list.hpp"
#include "support/sim_time.hpp"
#include "trace/trace.hpp"
#include "wire/framing.hpp"
#include "wire/session.hpp"

namespace rmiopt::net {

class Machine;

// Every traffic counter, declared once (support/field_list.hpp).  The
// transport counts the first list itself, one relaxed atomic per field;
// Cluster::stats() fills in the second from state the cluster owns.
#define RMIOPT_NET_TRANSPORT_FIELDS(X)                                         \
  X(Counter, messages)          /* logical wire::Messages carried */           \
  X(Counter, bytes)             /* charged wire bytes (header + payload) */    \
  X(Counter, frames)            /* physical frames transmitted */              \
  X(Counter, coalesced)         /* messages that shared a frame with others */ \
  X(Counter, gathered_messages) /* messages sent scatter-gather */             \
  /* Fault/reliability counters: all zero on a healthy network. */             \
  X(Counter, dropped)           /* frames lost in transit */                   \
  X(Counter, duplicated)        /* extra copies injected */                    \
  X(Counter, reordered)         /* stale copies delivered late */              \
  X(Counter, corrupted)         /* frames rejected by the checksum */          \
  X(Counter, retransmits)       /* ARQ re-sends of an undelivered frame */     \
  X(Counter, dedup_hits)        /* frames discarded by a receive window */     \
  X(Counter, timeouts)          /* retransmit timers the sender waited out */

#define RMIOPT_NET_CLUSTER_FIELDS(X)                                           \
  /* Receive-side frame pooling, from the per-machine pools: both zero */      \
  /* unless CostModel::zero_copy_receive routed delivery through pooled, */    \
  /* pinned frame buffers. */                                                  \
  X(Counter, frame_pool_hits)       /* deliveries served by the freelist */    \
  X(Counter, frame_pool_misses)     /* freelist dry: fresh buffer */           \
  /* Receive-window health, from the machines the windows live on: all */      \
  /* zero on a healthy network. */                                             \
  X(Counter, dedup_forced_slides)   /* horizon forced past a gap */            \
  X(Counter, dedup_late_recoveries) /* delayed frames still delivered */       \
  X(Counter, dedup_skipped_expired) /* gap entries that aged out */            \
  /* Failure detection, from the detector: all zero with the detector */       \
  /* disabled, the default. */                                                 \
  X(Counter, heartbeats)            /* probes that reached the monitor */      \
  X(Counter, heartbeat_misses)      /* expected probes that did not */         \
  X(Counter, suspicions)            /* machines marked Suspected */            \
  X(Counter, machine_deaths)        /* machines confirmed dead */

// Traffic counters.  The raw atomics stay private: readers take a
// Snapshot (a plain value type) and aggregate snapshots with +=.
class NetworkStats {
 public:
  struct Snapshot {
    RMIOPT_NET_TRANSPORT_FIELDS(RMIOPT_DECLARE_FIELD)
    RMIOPT_NET_CLUSTER_FIELDS(RMIOPT_DECLARE_FIELD)

    Snapshot& operator+=(const Snapshot& o) {
      RMIOPT_NET_TRANSPORT_FIELDS(RMIOPT_ADD_FIELD)
      RMIOPT_NET_CLUSTER_FIELDS(RMIOPT_ADD_FIELD)
      return *this;
    }

    std::uint64_t faults() const {
      return dropped + duplicated + reordered + corrupted;
    }

    // Field-by-field equality (the determinism tests compare whole runs).
    friend bool operator==(const Snapshot&, const Snapshot&) = default;
  };

  void record_frame(std::size_t message_count, std::size_t charged_bytes) {
    messages_.fetch_add(message_count, std::memory_order_relaxed);
    bytes_.fetch_add(charged_bytes, std::memory_order_relaxed);
    frames_.fetch_add(1, std::memory_order_relaxed);
    if (message_count > 1) {
      coalesced_.fetch_add(message_count, std::memory_order_relaxed);
    }
  }

  void record_gathered(std::size_t message_count) {
    if (message_count > 0) {
      gathered_messages_.fetch_add(message_count, std::memory_order_relaxed);
    }
  }

  void record_dropped() { dropped_.fetch_add(1, std::memory_order_relaxed); }
  void record_duplicated() {
    duplicated_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_reordered() {
    reordered_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_corrupted() {
    corrupted_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_retransmit() {
    retransmits_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_dedup_hit() {
    dedup_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_timeout() { timeouts_.fetch_add(1, std::memory_order_relaxed); }

  Snapshot snapshot() const {
    Snapshot s;
#define RMIOPT_LOAD_FIELD(type, name) \
  s.name = name##_.load(std::memory_order_relaxed);
    RMIOPT_NET_TRANSPORT_FIELDS(RMIOPT_LOAD_FIELD)
#undef RMIOPT_LOAD_FIELD
    return s;
  }

 private:
  // One relaxed atomic `name_` per transport-counted field.
#define RMIOPT_ATOMIC_FIELD(type, name) std::atomic<type> name##_{0};
  RMIOPT_NET_TRANSPORT_FIELDS(RMIOPT_ATOMIC_FIELD)
#undef RMIOPT_ATOMIC_FIELD
};

enum class TransportKind {
  Sim,       // byte-framed Myrinet/GM model (default)
  Loopback,  // in-process struct delivery, same cost model
};

constexpr std::string_view to_string(TransportKind k) {
  switch (k) {
    case TransportKind::Sim:
      return "sim";
    case TransportKind::Loopback:
      return "loopback";
  }
  return "?";
}

class Transport {
 public:
  explicit Transport(const serial::CostModel& cost) : cost_(cost) {}
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual std::string_view name() const = 0;

  // Moves `frame` from `sender` to `receiver`: charges the sender's
  // clock, computes the arrival time, and delivers every member message
  // to the receiver's inbox (all with the frame's arrival time — the
  // frame crosses the wire as one unit).  Returns the attempt's outcome
  // so the session ARQ can retransmit; the healthy backends always
  // deliver (duplicates discarded by the receive window still count as
  // Delivered — the receiver has the frame).
  virtual wire::SendOutcome submit(Machine& sender, Machine& receiver,
                                   const wire::Frame& frame) = 0;

  virtual NetworkStats::Snapshot stats() const { return stats_.snapshot(); }

  // Attaches a trace recorder (nullptr detaches): frame traversals become
  // Flight spans, injected faults become instants, on the link tracks.
  virtual void set_recorder(trace::Recorder* recorder) {
    recorder_ = recorder;
  }

  // Observes every frame a healthy backend is about to carry (called once
  // per submit, before delivery, from the sending thread).  Benches use it
  // to digest the physical frame image and prove backend equivalence; it
  // plays no part in delivery or cost.  nullptr detaches.
  using FrameProbe = std::function<void(std::uint16_t src, std::uint16_t dst,
                                        const wire::Frame& frame)>;
  virtual void set_frame_probe(FrameProbe probe) {
    frame_probe_ = std::move(probe);
  }

 protected:
  // Shared GM arithmetic: charges the sender the send-descriptor cost and
  // returns the frame's arrival time at the receiver's NIC (one-way
  // latency + bytes over the modelled bandwidth + per-fragment pipeline
  // overhead for frames larger than one MTU).
  SimTime charge_and_schedule(Machine& sender, std::size_t charged_bytes);

  void record(std::size_t message_count, std::size_t charged_bytes) {
    stats_.record_frame(message_count, charged_bytes);
  }

  void probe_frame(const Machine& sender, const Machine& receiver,
                   const wire::Frame& frame);

  // Messages in `frame` carrying a scatter-gather payload.
  static std::size_t gathered_count(const wire::Frame& frame) {
    std::size_t n = 0;
    for (const wire::Message& m : frame.messages) n += m.gathered != nullptr;
    return n;
  }

  // Flight span on the src->dst link track: from the moment the sender
  // finished paying the send descriptor until the frame reaches the
  // receiver's NIC.
  void trace_flight(Machine& sender, const Machine& receiver,
                    const wire::Frame& frame, std::size_t charged_bytes,
                    SimTime arrival);

  // Instant on the src->dst link track (injected faults).
  void trace_instant(trace::EventKind kind, Machine& sender,
                     const Machine& receiver, std::uint64_t link_seq);

  const serial::CostModel& cost_;
  NetworkStats stats_;
  trace::Recorder* recorder_ = nullptr;
  FrameProbe frame_probe_;
};

// Byte-framed network model: encode -> transmit -> decode -> dedup.
class SimTransport final : public Transport {
 public:
  using Transport::Transport;
  std::string_view name() const override { return "sim"; }
  wire::SendOutcome submit(Machine& sender, Machine& receiver,
                           const wire::Frame& frame) override;
};

// In-process delivery: the frame never becomes bytes.
class LoopbackTransport final : public Transport {
 public:
  using Transport::Transport;
  std::string_view name() const override { return "loopback"; }
  wire::SendOutcome submit(Machine& sender, Machine& receiver,
                           const wire::Frame& frame) override;
};

// Decorator executing a seeded FaultPlan over an inner backend.  Every
// decision is a pure function of (plan seed, link, link_seq, attempt), so
// runs are reproducible regardless of thread timing; see net/fault.hpp.
class FaultyTransport final : public Transport {
 public:
  FaultyTransport(const serial::CostModel& cost,
                  std::unique_ptr<Transport> inner, FaultPlan plan);

  std::string_view name() const override { return name_; }
  wire::SendOutcome submit(Machine& sender, Machine& receiver,
                           const wire::Frame& frame) override;

  // The decorator records its fault events; the inner backend records the
  // flights of whatever it actually delivers.
  void set_recorder(trace::Recorder* recorder) override {
    Transport::set_recorder(recorder);
    inner_->set_recorder(recorder);
  }

  // The probe belongs on the inner backend: it should see what is actually
  // carried (retries, duplicates, late copies), not what the fault plan
  // swallowed.
  void set_frame_probe(FrameProbe probe) override {
    inner_->set_frame_probe(std::move(probe));
  }

  // Own fault counters plus the wrapped backend's traffic counters.
  NetworkStats::Snapshot stats() const override {
    NetworkStats::Snapshot s = stats_.snapshot();
    s += inner_->stats();
    return s;
  }

  const FaultPlan& plan() const { return plan_; }

 private:
  struct LinkState {
    std::uint64_t last_seq = ~0ull;  // frame currently being attempted
    std::uint32_t attempt = 0;       // consecutive attempts of last_seq
    // A copy scheduled to arrive *late*: it is re-submitted (and then
    // discarded by the receive window as stale) behind the next frame on
    // this link — the only reordering a stop-and-wait link can exhibit.
    std::unique_ptr<wire::Frame> late;
  };

  LinkState& link_state(std::uint16_t src, std::uint16_t dst);

  const FaultPlan plan_;
  std::unique_ptr<Transport> inner_;
  std::string name_;
  std::mutex mu_;
  std::unordered_map<std::uint32_t, LinkState> links_;
};

std::unique_ptr<Transport> make_transport(TransportKind kind,
                                          const serial::CostModel& cost);

}  // namespace rmiopt::net
