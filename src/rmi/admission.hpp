// Deterministic admission control for one callee machine.
//
// The controller models the callee's dispatch inbox as a queue on the
// *virtual-time* axis: every admitted call occupies the callee for a
// configured service estimate, and backlog drains as virtual time passes.
// Admission decisions are therefore pure functions of (the sender's
// virtual clock at the send, the sequence of prior admissions) — real
// thread scheduling never enters, so Sim and Loopback runs agree
// seed-for-seed and an overloaded run is reproducible byte-for-byte.
//
// Two-level policy (ExecutorConfig knobs):
//  * depth < high-water          — admit untouched;
//  * high-water <= depth < bound — admit, but charge the sender a
//    flow-control *credit stall* in virtual time, one credit_stall_ns per
//    unit of backlog above the mark (session-level backpressure: the
//    sender's own send is delayed, so a cooperative caller slows to the
//    callee's capacity before anything is lost);
//  * depth >= bound              — shed: the newest, not-yet-admitted
//    call is refused with a typed rmi::Overload the caller can retry
//    with backoff.  Shed calls never enter the backlog, so the model
//    cannot collapse under a misbehaving sender.
// A call whose credit stall carries it to or past its deadline is refused
// too (the caller raises DeadlineExceeded) and, like a shed call, never
// enters the backlog: nothing is sent, so it must not hold an inbox slot.
//
// With inbox_bound == 0 (the default) the controller is inert: admit()
// is never called and no state exists, keeping the default invoke path
// byte-identical.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <mutex>

namespace rmiopt::rmi {

class AdmissionController {
 public:
  enum class Verdict {
    Admitted,
    Shed,      // inbox at its bound
    Deadline,  // the credit stall reached the call's deadline
  };
  struct Decision {
    Verdict verdict = Verdict::Admitted;
    // Virtual nanoseconds of backpressure the sender must charge to its
    // own clock before the send (0 when below the high-water mark).
    std::int64_t stall_ns = 0;
  };

  AdmissionController(std::size_t bound, std::size_t highwater,
                      std::int64_t credit_stall_ns,
                      std::int64_t service_ns)
      : bound_(bound),
        highwater_(highwater != 0 ? highwater
                                  : std::max<std::size_t>(bound / 2, 1)),
        credit_stall_ns_(credit_stall_ns),
        service_ns_(service_ns) {}

  bool enabled() const { return bound_ != 0; }

  // One call offered at the sender's virtual time `now_ns`, with absolute
  // virtual deadline `deadline_ns` (0 = none).  Returns the decision; the
  // caller charges `stall_ns` to its clock (the delayed send) and, unless
  // admitted, raises Overload (Shed) or DeadlineExceeded (Deadline)
  // without sending.
  Decision admit(std::int64_t now_ns, std::int64_t deadline_ns) {
    std::scoped_lock lock(mu_);
    drain(now_ns);
    Decision d;
    if (backlog_.size() >= bound_) {
      d.verdict = Verdict::Shed;
      return d;
    }
    if (backlog_.size() >= highwater_) {
      d.stall_ns = credit_stall_ns_ *
                   static_cast<std::int64_t>(backlog_.size() - highwater_ + 1);
      // The stall advanced the sender's clock; backlog keeps draining
      // underneath it before the call is finally enqueued.
      now_ns += d.stall_ns;
      if (deadline_ns != 0 && now_ns >= deadline_ns) {
        d.verdict = Verdict::Deadline;
        return d;
      }
      drain(now_ns);
    }
    const std::int64_t start =
        backlog_.empty() ? now_ns : std::max(now_ns, backlog_.back());
    backlog_.push_back(start + service_ns_);
    return d;
  }

  // Modelled backlog depth at `now_ns` (introspection/tests).
  std::size_t depth(std::int64_t now_ns) {
    std::scoped_lock lock(mu_);
    drain(now_ns);
    return backlog_.size();
  }

 private:
  // Completed-by-now entries leave the model.  Entries are completion
  // times in nondecreasing order, so the drain is a front pop.
  void drain(std::int64_t now_ns) {
    while (!backlog_.empty() && backlog_.front() <= now_ns) {
      backlog_.pop_front();
    }
  }

  const std::size_t bound_;
  const std::size_t highwater_;
  const std::int64_t credit_stall_ns_;
  const std::int64_t service_ns_;
  std::mutex mu_;
  std::deque<std::int64_t> backlog_;  // virtual completion times, ascending
};

}  // namespace rmiopt::rmi
