#include "rmi/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "support/scratch.hpp"

namespace rmiopt::rmi {

namespace {

// The deadline of the call whose handler this thread is currently
// running (0 = none).  Nested invokes issued from inside a handler read
// it to inherit the remaining budget; it is set strictly around handler
// execution, so app threads and idle workers always see 0.
thread_local std::int64_t t_ambient_deadline_ns = 0;

class AmbientDeadlineScope {
 public:
  explicit AmbientDeadlineScope(std::int64_t deadline_ns)
      : saved_(t_ambient_deadline_ns) {
    t_ambient_deadline_ns = deadline_ns;
  }
  ~AmbientDeadlineScope() { t_ambient_deadline_ns = saved_; }
  AmbientDeadlineScope(const AmbientDeadlineScope&) = delete;
  AmbientDeadlineScope& operator=(const AmbientDeadlineScope&) = delete;

 private:
  std::int64_t saved_;
};

// Deep-clones one graph for a same-machine call (RMI copy semantics hold
// regardless of placement, §1) and adds the copy to `pass`.
om::ObjRef clone_graph(om::Heap& heap, om::ObjRef root,
                       serial::SerialStats& pass) {
  if (root == nullptr) return nullptr;
  om::ObjRef copy = om::deep_clone(heap, root);
  const om::GraphExtent ext = om::graph_extent(copy);
  pass.objects_allocated += ext.objects;
  pass.bytes_allocated += ext.bytes;
  pass.bytes_copied += ext.bytes;
  return copy;
}

// A reply-direction message (callee -> caller) of `kind` for `token`.
wire::Message reply_message(const ReplyToken& token, wire::MsgKind kind) {
  wire::Message m;
  m.header.kind = kind;
  m.header.callsite_id = token.callsite_id;
  m.header.seq = token.seq;
  m.header.source_machine = token.callee_machine;
  m.header.dest_machine = token.caller_machine;
  return m;
}

}  // namespace

// Shared state of one invoke_async: the send half fills it on the
// caller's thread; RmiFuture::get() hands it back to finish_remote.  For
// a local target the call already ran inline and the outcome is stored
// directly.
struct AsyncCallState {
  RmiSystem* sys = nullptr;
  std::uint16_t caller = 0;
  RemoteRef target;
  std::uint32_t callsite_id = 0;
  std::uint32_t seq = 0;
  bool is_local = false;
  om::ObjRef local_value = nullptr;
  std::exception_ptr local_error;
  std::future<RmiSystem::PendingReply> fut;
  std::int64_t call_start_ns = 0;  // caller-perceived Call span (tracing)
  std::uint64_t request_bytes = 0;
  std::atomic<bool> cancel_sent{false};
};

// ---- RmiFuture --------------------------------------------------------------

RmiFuture::RmiFuture() noexcept = default;
RmiFuture::~RmiFuture() = default;
RmiFuture::RmiFuture(RmiFuture&&) noexcept = default;
RmiFuture& RmiFuture::operator=(RmiFuture&&) noexcept = default;
RmiFuture::RmiFuture(std::shared_ptr<AsyncCallState> state) noexcept
    : state_(std::move(state)) {}

bool RmiFuture::valid() const { return state_ != nullptr; }

om::ObjRef RmiFuture::get() {
  RMIOPT_CHECK(state_ != nullptr, "get() on an invalid RmiFuture");
  const std::shared_ptr<AsyncCallState> st = std::move(state_);
  if (st->is_local) {
    if (st->local_error) std::rethrow_exception(st->local_error);
    return st->local_value;
  }
  return st->sys->finish_remote(*st);
}

bool RmiFuture::wait_for(std::int64_t real_ms) {
  RMIOPT_CHECK(state_ != nullptr, "wait_for() on an invalid RmiFuture");
  if (state_->is_local) return true;
  return state_->fut.wait_for(std::chrono::milliseconds(
             real_ms > 0 ? real_ms : 0)) == std::future_status::ready;
}

void RmiFuture::cancel() {
  if (state_ == nullptr || state_->is_local) return;
  if (state_->cancel_sent.exchange(true)) return;  // idempotent
  state_->sys->send_cancel_raw(state_->caller, state_->target.machine,
                               state_->callsite_id, state_->seq);
}

RmiSystem::RmiSystem(net::Cluster& cluster, const om::TypeRegistry& types,
                     const ExecutorConfig& executor)
    : cluster_(cluster), exec_cfg_(executor), class_plans_(types) {
  contexts_.reserve(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    contexts_.push_back(std::make_unique<MachineContext>());
    contexts_.back()->executor =
        std::make_unique<DispatchExecutor>(executor.dispatch_workers);
    contexts_.back()->admission = std::make_unique<AdmissionController>(
        executor.inbox_bound, executor.inbox_highwater,
        executor.credit_stall_ns, executor.admission_service_ns);
  }
}

RmiSystem::~RmiSystem() { stop(); }

std::uint32_t RmiSystem::define_method(std::string name, Handler handler) {
  RMIOPT_CHECK(!started_, "define_method after start");
  methods_.emplace_back(std::move(name), std::move(handler));
  return static_cast<std::uint32_t>(methods_.size() - 1);
}

std::uint32_t RmiSystem::add_callsite(CompiledCallSite site) {
  RMIOPT_CHECK(site.plan != nullptr, "call site needs a plan");
  RMIOPT_CHECK(site.method_id < methods_.size(),
               "call site references unknown method");
  const auto id = static_cast<std::uint32_t>(callsites_.size());
  site.plan->id = id;
  callsites_.push_back(std::move(site));
  return id;
}

const CompiledCallSite& RmiSystem::callsite(std::uint32_t id) const {
  RMIOPT_CHECK(id < callsites_.size(), "unknown call site");
  return callsites_[id];
}

RemoteRef RmiSystem::export_object(std::uint16_t machine, om::ObjRef obj) {
  MachineContext& ctx = *contexts_.at(machine);
  std::scoped_lock lock(ctx.exports_mu);
  ctx.exports.push_back(obj);
  return RemoteRef{machine,
                   static_cast<std::uint32_t>(ctx.exports.size() - 1)};
}

void RmiSystem::start() {
  RMIOPT_CHECK(!started_, "already started");
  started_ = true;
  if (net::FailureDetector* fd = cluster_.detector()) {
    // Fast-fail propagation: a confirmed death immediately releases every
    // caller blocked on that machine.  The callback outlives traffic, not
    // this object — the cluster (and its detector) must outlive the
    // RmiSystem, which the construction order of every app guarantees;
    // after stop() nothing polls, so the callback can no longer fire.
    fd->on_death([this](std::uint16_t machine, SimTime) {
      fail_pending_to(machine);
    });
  }
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    contexts_[i]->dispatcher = std::thread(
        [this, i] { dispatch_loop(static_cast<std::uint16_t>(i)); });
  }
}

void RmiSystem::stop() {
  if (!started_) return;
  cluster_.shutdown();
  for (auto& ctx : contexts_) {
    if (ctx->dispatcher.joinable()) ctx->dispatcher.join();
  }
  // Dispatchers are gone; let the pools finish whatever they queued.
  for (auto& ctx : contexts_) ctx->executor->drain_and_stop();
  // Handlers that finished during the executor drain may have posted
  // replies/ACKs *after* the shutdown flush above; under a batching
  // session config those sit coalesced in a session queue and would be
  // silently dropped.  Drain every session again now that no handler can
  // produce more traffic.
  cluster_.flush();
  // Callee-side reuse caches are runtime-owned (§3.3): release them now
  // that nothing can dispatch into them.  Return-value caches are not —
  // their top graph is the value the caller last received and may still
  // hold.  Slots may share substructure across arguments, so free the
  // union per machine exactly once.
  for (std::size_t id = 0; id < contexts_.size(); ++id) {
    MachineContext& ctx = *contexts_[id];
    support::Scratch<om::ObjSet> graphs;
    {
      std::scoped_lock lock(ctx.cache_mu);
      for (auto& [site, slot] : ctx.arg_cache) {
        std::scoped_lock slot_lock(slot->mu);
        for (om::ObjRef o : slot->cached) om::collect_graph(o, *graphs);
        slot->cached.clear();
      }
    }
    om::Heap& heap = cluster_.machine(static_cast<std::uint16_t>(id)).heap();
    graphs->for_each([&](om::ObjRef o) { heap.free(o); });
  }
  started_ = false;
}

void RmiSystem::account(std::uint16_t machine_id, std::uint32_t callsite_id,
                        const serial::SerialStats& pass, int local_rpcs,
                        int remote_rpcs) {
  cluster_.machine(machine_id).clock().advance(
      pass.cpu_cost(cluster_.cost()));
  contexts_.at(machine_id)->stats.add_pass(pass);
  std::scoped_lock lock(site_stats_mu_);
  RmiStatsSnapshot& s = site_stats_[callsite_id];
  s.serial += pass;
  s.local_rpcs += static_cast<std::uint64_t>(local_rpcs);
  s.remote_rpcs += static_cast<std::uint64_t>(remote_rpcs);
}

// ---- tracing ----------------------------------------------------------------

trace::PassTrace RmiSystem::pass_trace(trace::EventKind kind,
                                       std::uint16_t machine_id,
                                       std::uint32_t callsite_id,
                                       std::uint32_t seq) const {
  trace::PassTrace pt;
  pt.recorder = recorder();
  if (pt.recorder == nullptr) return pt;  // inert: no clock read
  pt.kind = kind;
  pt.machine = machine_id;
  pt.callsite = callsite_id;
  pt.seq = seq;
  pt.virtual_start_ns = cluster_.machine(machine_id).clock().now().as_nanos();
  pt.cost = &cluster_.cost();
  return pt;
}

void RmiSystem::trace_instant(trace::EventKind kind, std::uint16_t machine_id,
                              std::uint32_t callsite_id,
                              std::uint32_t seq) const {
  trace::Recorder* rec = recorder();
  if (rec == nullptr) return;
  trace::Event e;
  e.kind = kind;
  e.machine = machine_id;
  e.callsite = callsite_id;
  e.seq = seq;
  e.start_ns = cluster_.machine(machine_id).clock().now().as_nanos();
  rec->record(e);
}

void RmiSystem::trace_span(trace::EventKind kind, std::uint16_t machine_id,
                           std::uint32_t callsite_id, std::uint32_t seq,
                           std::int64_t start_ns, std::uint64_t bytes) const {
  trace::Recorder* rec = recorder();
  if (rec == nullptr) return;
  trace::Event e;
  e.kind = kind;
  e.machine = machine_id;
  e.callsite = callsite_id;
  e.seq = seq;
  e.start_ns = start_ns;
  const std::int64_t now =
      cluster_.machine(machine_id).clock().now().as_nanos();
  e.dur_ns = now > start_ns ? now - start_ns : 0;
  e.bytes = bytes;
  rec->record(e);
}

void RmiSystem::charge_stub(std::uint16_t machine_id,
                            const CompiledCallSite& site, std::size_t nargs,
                            std::size_t nscalars) {
  const serial::CostModel& c = cluster_.cost();
  std::int64_t ns = site.site_specific ? c.site_stub_ns : c.generic_stub_ns;
  if (!site.site_specific) {
    const std::size_t boxed =
        nargs + nscalars + (site.plan->ret != nullptr ? 1 : 0);
    ns += static_cast<std::int64_t>(boxed) * c.generic_arg_box_ns;
  }
  cluster_.machine(machine_id).clock().advance(SimTime::nanos(ns));
}

std::string RmiSystem::site_desc(std::uint32_t callsite_id) const {
  if (callsite_id >= callsites_.size()) {
    return "site " + std::to_string(callsite_id) + " (unknown)";
  }
  const CompiledCallSite& s = callsites_[callsite_id];
  return "site " + std::to_string(callsite_id) + " (" + s.plan->name + ", " +
         std::string(codegen::to_string(s.level)) + ")";
}

std::int64_t RmiSystem::compute_deadline(std::int64_t now_ns,
                                         const CallOptions& opts) const {
  std::int64_t base = 0;
  if (opts.budget_ns > 0) {
    base = now_ns + opts.budget_ns;
  } else if (exec_cfg_.default_deadline_ns > 0) {
    base = now_ns + exec_cfg_.default_deadline_ns;
  }
  std::int64_t inherited = 0;
  if (t_ambient_deadline_ns != 0) {
    inherited = t_ambient_deadline_ns - exec_cfg_.deadline_slack_ns;
    // 0 means "no deadline"; an inherited budget that erodes to exactly 0
    // is *expired*, so keep it distinguishable (any nonzero value <= now
    // reads as expired downstream).
    if (inherited == 0) inherited = -1;
  }
  if (base == 0) return inherited;
  if (inherited == 0) return base;
  return std::min(base, inherited);
}

void RmiSystem::send_cancel_raw(std::uint16_t caller, std::uint16_t dest,
                                std::uint32_t callsite_id,
                                std::uint32_t seq) {
  MachineContext& cctx = *contexts_.at(caller);
  cctx.stats.count(&RmiStatsSnapshot::cancels_sent);
  trace_instant(trace::EventKind::CancelSent, caller, callsite_id, seq);
  wire::Message c;
  c.header.kind = wire::MsgKind::Cancel;
  c.header.callsite_id = callsite_id;
  c.header.seq = seq;
  c.header.source_machine = caller;
  c.header.dest_machine = dest;
  try {
    cluster_.send(std::move(c));
  } catch (const Error&) {
    // Best-effort by contract: an undeliverable cancel only means the
    // callee computes a reply the caller will drop as a stray.
  }
}

void RmiSystem::deliver_reply(MachineContext& callee_ctx,
                              const ReplyToken& token, wire::Message reply,
                              om::ObjRef local_value) {
  if (token.caller_machine == token.callee_machine) {
    if (token.oneway) return;  // fire-and-forget: nobody is waiting
    PendingReply rep;
    rep.local_value = local_value;
    rep.msg = std::move(reply);
    // The runtime produced this reply itself, so a missing pending entry
    // is a programmer error, not network noise.
    RMIOPT_CHECK(try_fulfill_pending(callee_ctx, token.seq, std::move(rep)),
                 "reply without matching call");
    return;
  }
  // At-most-once: keep the reply so a duplicate of this call is answered
  // by replay instead of re-executing the handler.  For a oneway call the
  // entry only marks completion: its duplicates are suppressed silently.
  cache_reply(callee_ctx, call_key(token.caller_machine, token.seq), reply);
  if (token.oneway) return;
  try {
    cluster_.send(std::move(reply));
  } catch (const ProtocolError&) {
    // The caller's machine is unreachable; the call has already executed,
    // so all we can do is count the lost reply.  A surviving caller will
    // surface its own RmiTimeout.
    callee_ctx.stats.count(&RmiStatsSnapshot::undeliverable_replies);
  }
}

void RmiSystem::reject_call(MachineContext& ctx, const ReplyToken& token,
                            wire::RejectCode code, const std::string& reason) {
  wire::Message rej = reply_message(token, wire::MsgKind::Reject);
  rej.payload.put_u8(static_cast<std::uint8_t>(code));
  rej.payload.put_string(reason);
  // A remote reject is cached as the call's tombstone: a duplicate replays
  // the typed refusal instead of re-executing (at-most-once holds across
  // cancellation).
  deliver_reply(ctx, token, std::move(rej));
}

std::promise<RmiSystem::PendingReply>& RmiSystem::register_pending(
    MachineContext& ctx, std::uint32_t seq, std::uint16_t dest) {
  std::scoped_lock lock(ctx.pending_mu);
  PendingSlot& slot = ctx.pending[seq];
  slot.dest = dest;
  return slot.promise;
}

void RmiSystem::drop_pending(MachineContext& ctx, std::uint32_t seq) {
  std::scoped_lock lock(ctx.pending_mu);
  ctx.pending.erase(seq);
}

RmiSystem::PendingReply RmiSystem::await_pending(
    MachineContext& ctx, std::uint16_t caller, std::uint32_t callsite_id,
    std::uint32_t seq, std::future<PendingReply> fut, std::uint16_t dest) {
  const std::int64_t budget_ms = exec_cfg_.call_timeout_ms;
  net::FailureDetector* const fd = cluster_.detector();
  bool timed_out = false;
  if (fd == nullptr) {
    timed_out =
        budget_ms > 0 &&
        fut.wait_for(std::chrono::milliseconds(budget_ms)) ==
            std::future_status::timeout;
  } else {
    // Slice the real-time wait: between slices, drive the probe rounds
    // with the cluster-wide makespan (the dead callee's own burning ARQ
    // advances virtual time even while this thread is parked) and bail
    // out the moment `dest` is confirmed dead.  Slices are real time, so
    // they affect only how promptly a blocked caller notices; the death
    // declaration itself stays on the deterministic virtual-time axis.
    constexpr std::int64_t kSliceMs = 2;
    for (std::int64_t waited_ms = 0;;) {
      if (fut.wait_for(std::chrono::milliseconds(kSliceMs)) ==
          std::future_status::ready) {
        break;
      }
      fd->poll(cluster_.makespan());
      if (fd->dead(dest) &&
          fut.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
        drop_pending(ctx, seq);
        ctx.stats.count(&RmiStatsSnapshot::call_timeouts);
        ctx.stats.count(&RmiStatsSnapshot::machine_down_failures);
        throw MachineDown(
            dest, "call seq " + std::to_string(seq) + " via " +
                      site_desc(callsite_id) + " to machine " +
                      std::to_string(dest) +
                      ": machine declared dead while awaiting the reply");
      }
      waited_ms += kSliceMs;
      if (budget_ms > 0 && waited_ms >= budget_ms) {
        timed_out = true;
        break;
      }
    }
  }
  if (timed_out) {
    drop_pending(ctx, seq);
    ctx.stats.count(&RmiStatsSnapshot::call_timeouts);
    // The callee may still be computing: tell it to stop (best-effort) so
    // the reply nobody will read is abandoned at the next poll boundary.
    if (dest != caller) send_cancel_raw(caller, dest, callsite_id, seq);
    throw RmiTimeout("call seq " + std::to_string(seq) + " via " +
                     site_desc(callsite_id) + ": no reply within " +
                     std::to_string(budget_ms) + " ms");
  }
  PendingReply rep = fut.get();
  drop_pending(ctx, seq);
  if (rep.machine_down) {
    ctx.stats.count(&RmiStatsSnapshot::call_timeouts);
    ctx.stats.count(&RmiStatsSnapshot::machine_down_failures);
    throw MachineDown(dest, "call seq " + std::to_string(seq) + " via " +
                                site_desc(callsite_id) + " to machine " +
                                std::to_string(dest) +
                                ": machine declared dead");
  }
  if (rep.msg.header.kind == wire::MsgKind::Exception) {
    throw RemoteException(rep.msg.payload.get_string());
  }
  if (rep.msg.header.kind == wire::MsgKind::Reject) {
    // The callee refused (or abandoned) the call without running its
    // handler to completion, or the handler's nested call failed fast —
    // at either placement: map the code back to the typed exception.
    const auto code = static_cast<wire::RejectCode>(rep.msg.payload.get_u8());
    const std::string reason = rep.msg.payload.get_string();
    const std::string what = "call seq " + std::to_string(seq) + " via " +
                             site_desc(callsite_id) + " to machine " +
                             std::to_string(dest) + ": " + reason;
    switch (code) {
      case wire::RejectCode::DeadlineExceeded:
        ctx.stats.count(&RmiStatsSnapshot::call_timeouts);
        throw DeadlineExceeded(what);
      case wire::RejectCode::Overload:
        throw Overload(what);
      case wire::RejectCode::Cancelled:
        throw Cancelled(what);
    }
    throw RmiTimeout(what);  // unknown code from a newer peer
  }
  return rep;
}

bool RmiSystem::try_fulfill_pending(MachineContext& ctx, std::uint32_t seq,
                                    PendingReply reply) {
  std::promise<PendingReply> prom;
  {
    std::scoped_lock lock(ctx.pending_mu);
    auto it = ctx.pending.find(seq);
    if (it == ctx.pending.end()) return false;
    prom = std::move(it->second.promise);
    // Erase now: a promise fulfills exactly once, so leaving the consumed
    // slot behind would let a second reply for this seq (late real reply
    // after a fail_pending_to, or a duplicate) hit a moved-from promise.
    ctx.pending.erase(it);
  }
  prom.set_value(std::move(reply));
  return true;
}

void RmiSystem::fail_pending_to(std::uint16_t machine) {
  for (auto& ctxp : contexts_) {
    std::vector<std::promise<PendingReply>> victims;
    {
      std::scoped_lock lock(ctxp->pending_mu);
      for (auto it = ctxp->pending.begin(); it != ctxp->pending.end();) {
        if (it->second.dest == machine) {
          victims.push_back(std::move(it->second.promise));
          it = ctxp->pending.erase(it);
        } else {
          ++it;
        }
      }
    }
    // Fulfill outside the lock: the woken caller's first act is to take
    // pending_mu for its own erase (now a no-op).
    for (std::promise<PendingReply>& p : victims) {
      PendingReply rep;
      rep.machine_down = true;
      p.set_value(std::move(rep));
    }
  }
}

// ---- at-most-once -----------------------------------------------------------

RmiSystem::CallAdmission RmiSystem::admit_call(std::uint16_t machine_id,
                                               MachineContext& ctx,
                                               std::uint64_t key,
                                               wire::Message* replay) {
  std::scoped_lock lock(ctx.amo_mu);
  auto it = ctx.reply_cache.find(key);
  if (it != ctx.reply_cache.end()) {
    if (!it->second.replied) return CallAdmission::InProgress;
    *replay = it->second.reply;  // copy: the cache keeps its own
    return CallAdmission::Replied;
  }
  ctx.reply_cache.emplace(key, ReplyCacheEntry{});
  ctx.reply_cache_order.push_back(key);
  // Bounded FIFO eviction of *completed* entries only.  An in-flight
  // entry (admitted, not yet replied) is the sole record that its call is
  // executing: evicting it would let a delayed duplicate be re-admitted
  // as Fresh and the handler run twice.  Such entries are pinned — moved
  // to the back of the order and counted — and the cache transiently
  // exceeds its capacity by the number of concurrent in-flight calls.
  std::size_t scanned = 0;
  while (ctx.reply_cache.size() > exec_cfg_.reply_cache_capacity &&
         scanned < ctx.reply_cache_order.size()) {
    ++scanned;
    const std::uint64_t victim = ctx.reply_cache_order.front();
    ctx.reply_cache_order.pop_front();
    auto vit = ctx.reply_cache.find(victim);
    if (vit == ctx.reply_cache.end()) continue;  // already released
    if (!vit->second.replied) {
      ctx.reply_cache_order.push_back(victim);  // pinned: still in flight
      ctx.stats.count(&RmiStatsSnapshot::reply_cache_pins);
      trace_instant(trace::EventKind::ReplyCachePinned, machine_id,
                    trace::Event::kNoCallsite,
                    static_cast<std::uint32_t>(victim));
      continue;
    }
    ctx.reply_cache.erase(vit);
  }
  return CallAdmission::Fresh;
}

void RmiSystem::cache_reply(MachineContext& ctx, std::uint64_t key,
                            const wire::Message& reply) {
  std::scoped_lock lock(ctx.amo_mu);
  auto it = ctx.reply_cache.find(key);
  if (it == ctx.reply_cache.end()) return;  // already evicted
  it->second.replied = true;
  it->second.reply = reply;
}

RmiSystem::ReuseSlot& RmiSystem::reuse_slot(MachineContext& ctx,
                                            bool ret_side,
                                            std::uint32_t callsite_id,
                                            std::size_t arity) {
  ReuseSlot* slot;
  {
    std::scoped_lock lock(ctx.cache_mu);
    auto& entry = (ret_side ? ctx.ret_cache : ctx.arg_cache)[callsite_id];
    if (!entry) entry = std::make_unique<ReuseSlot>();
    slot = entry.get();
  }
  // `cached` is guarded by the slot's own mutex: another thread may be
  // storing its arguments back into it right now.
  std::scoped_lock lock(slot->mu);
  if (slot->cached.size() < arity) slot->cached.resize(arity, nullptr);
  return *slot;
}

void RmiSystem::free_args(std::uint16_t machine_id, std::uint32_t callsite_id,
                          std::span<const om::ObjRef> args) {
  // Arguments may share substructure (Figure 8 passes the same object
  // twice), so free the *union* of the graphs exactly once.
  om::Heap& heap = cluster_.machine(machine_id).heap();
  support::Scratch<om::ObjSet> all;
  for (om::ObjRef a : args) om::collect_graph(a, *all);
  all->for_each([&](om::ObjRef o) { heap.free(o); });
  serial::SerialStats pass;
  pass.objects_freed += all->size();
  account(machine_id, callsite_id, pass);
}

// ---- invocation -------------------------------------------------------------

om::ObjRef RmiSystem::invoke(std::uint16_t caller, RemoteRef target,
                             std::uint32_t callsite_id,
                             std::span<const om::ObjRef> args,
                             std::span<const std::int64_t> scalars,
                             const CallOptions& opts) {
  // The one code path: synchronous RMI is an async send consumed at once.
  return invoke_async(caller, target, callsite_id, args, scalars, opts)
      .get();
}

RmiFuture RmiSystem::invoke_async(std::uint16_t caller, RemoteRef target,
                                  std::uint32_t callsite_id,
                                  std::span<const om::ObjRef> args,
                                  std::span<const std::int64_t> scalars,
                                  const CallOptions& opts) {
  return start_call(caller, target, callsite_id, args, scalars, opts, false);
}

void RmiSystem::invoke_oneway(std::uint16_t caller, RemoteRef target,
                              std::uint32_t callsite_id,
                              std::span<const om::ObjRef> args,
                              std::span<const std::int64_t> scalars,
                              const CallOptions& opts) {
  start_call(caller, target, callsite_id, args, scalars, opts, true);
}

RmiFuture RmiSystem::start_call(std::uint16_t caller, RemoteRef target,
                                std::uint32_t callsite_id,
                                std::span<const om::ObjRef> args,
                                std::span<const std::int64_t> scalars,
                                const CallOptions& opts, bool oneway) {
  const CompiledCallSite& site = callsite(callsite_id);
  const serial::CallSitePlan& plan = *site.plan;
  RMIOPT_CHECK(args.size() == plan.args.size(),
               "argument count does not match call-site plan");
  const std::uint32_t seq = next_seq_.fetch_add(1);
  MachineContext& cctx = *contexts_.at(caller);
  net::Machine& m = cluster_.machine(caller);
  const bool local = target.machine == caller;
  const auto what = [&](const std::string& verdict) {
    return std::string(oneway ? "oneway call via " : "call via ") +
           site_desc(callsite_id) + " to machine " +
           std::to_string(target.machine) + verdict;
  };

  // Fail fast at the first hop that cannot finish in time: do not
  // serialize, do not send.
  const std::int64_t deadline =
      compute_deadline(m.clock().now().as_nanos(), opts);
  const auto check_deadline = [&](const char* verdict) {
    if (deadline == 0 || m.clock().now().as_nanos() < deadline) return;
    cctx.stats.count(&RmiStatsSnapshot::deadline_rejects);
    trace_instant(trace::EventKind::DeadlineReject, caller, callsite_id, seq);
    throw DeadlineExceeded(what(verdict));
  };
  check_deadline(": budget exhausted before the send");

  // Admission control, evaluated against the callee's deterministic
  // virtual-time inbox model *before* any work is invested in the call.
  AdmissionController& adm = *contexts_.at(target.machine)->admission;
  if (!local && adm.enabled()) {
    const AdmissionController::Decision d =
        adm.admit(m.clock().now().as_nanos(), deadline);
    if (d.stall_ns > 0) {
      // Backpressure: the flow-control credit delays this sender's
      // virtual-time send, pacing it to the callee's capacity.
      const std::int64_t stall_start =
          recorder() != nullptr ? m.clock().now().as_nanos() : 0;
      m.clock().advance(SimTime::nanos(d.stall_ns));
      cctx.stats.count(&RmiStatsSnapshot::credit_stalls);
      trace_span(trace::EventKind::CreditStall, caller, callsite_id, seq,
                 stall_start);
    }
    if (d.verdict == AdmissionController::Verdict::Shed) {
      cctx.stats.count(&RmiStatsSnapshot::sheds);
      trace_instant(trace::EventKind::OverloadShed, caller, callsite_id,
                    seq);
      throw Overload(what(" shed: inbox at its bound (" +
                          std::to_string(exec_cfg_.inbox_bound) +
                          "); retry with backoff"));
    }
    // The stall consumed part of the budget; re-check before sending.  A
    // Deadline verdict was never enqueued, so the refusal holds no slot.
    check_deadline(": budget exhausted by flow-control backpressure");
  }

  if (oneway) {
    cctx.stats.count(&RmiStatsSnapshot::oneway_calls);
    trace_instant(trace::EventKind::OnewaySend, caller, callsite_id, seq);
  }
  if (local) {
    // The local path is synchronous by construction (the handler runs
    // inline on this thread): a call that wants a reply gets a ready
    // future.
    cctx.stats.count(&RmiStatsSnapshot::local_rpcs);
    if (oneway) {
      run_local(caller, target, site, args, scalars, seq, deadline, true);
      return RmiFuture();
    }
    auto st = std::make_shared<AsyncCallState>();
    st->is_local = true;
    try {
      st->local_value =
          run_local(caller, target, site, args, scalars, seq, deadline, false);
    } catch (...) {
      st->local_error = std::current_exception();
    }
    return RmiFuture(std::move(st));
  }
  cctx.stats.count(&RmiStatsSnapshot::remote_rpcs);

  // Only a call that wants a reply keeps pending state: a oneway call
  // allocates neither a slot nor a future.
  std::shared_ptr<AsyncCallState> st;
  if (!oneway) {
    st = std::make_shared<AsyncCallState>();
    st->sys = this;
    st->caller = caller;
    st->target = target;
    st->callsite_id = callsite_id;
    st->seq = seq;
    // Caller-perceived Call span: from here to the reply's deserialization.
    st->call_start_ns =
        recorder() != nullptr ? m.clock().now().as_nanos() : 0;
    st->fut = register_pending(cctx, seq, target.machine).get_future();
  }

  wire::Message msg;
  msg.header.kind = wire::MsgKind::Call;
  msg.header.callsite_id = callsite_id;
  msg.header.target_export = target.export_id;
  msg.header.seq = seq;
  msg.header.source_machine = caller;
  msg.header.dest_machine = target.machine;
  msg.header.flags = oneway ? wire::kFlagOneway : std::uint8_t{0};
  msg.header.deadline_ns = deadline;

  // Scatter-gather send (CostModel::zero_copy_send): serialize into a
  // gather list so inline primitive-array rows ride as borrowed segments.
  // The HEAVY protocol keeps the contiguous path — it is the baseline the
  // ablations compare against.
  const serial::CostModel& cmodel = cluster_.cost();
  if (cmodel.zero_copy_send && !site.heavy) {
    msg.gathered = std::make_shared<support::GatherBuffer>(
        cmodel.gather_min_borrow_bytes, cmodel.gather_pin_copy_threshold);
    msg.gathered->put_varint(scalars.size());
    for (const std::int64_t s : scalars) msg.gathered->put_i64(s);
  } else {
    msg.payload.put_varint(scalars.size());
    for (const std::int64_t s : scalars) msg.payload.put_i64(s);
  }

  // Per-call marshaler machinery: generic stub vs generated code (§3.1).
  charge_stub(caller, site, args.size(), scalars.size());

  const bool cycle_enabled = site.heavy || plan.needs_cycle_table;
  serial::SerialStats pass;
  {
    serial::SerialWriter w(
        class_plans_, pass, cycle_enabled,
        pass_trace(trace::EventKind::Serialize, caller, callsite_id, seq));
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (site.heavy) {
        w.write_introspective(msg.payload, args[i]);
      } else if (msg.gathered) {
        w.write(*msg.gathered, *plan.args[i], args[i]);
      } else {
        w.write(msg.payload, *plan.args[i], args[i]);
      }
    }
  }
  // Pin/fold borrowed spans *before* the caller can touch its argument
  // graphs again: from here on the payload image is frozen, so ARQ
  // retransmits and fault-plan copies stay byte-identical.
  msg.seal_gathered();
  if (st) st->request_bytes = msg.payload_size();
  account(caller, callsite_id, pass, 0, 1);

  try {
    cluster_.send(std::move(msg));
  } catch (const MachineDeadError& e) {
    // The failure detector already confirmed the endpoint dead: fail the
    // call immediately with the typed form instead of waiting out the ARQ
    // retransmit budget.
    if (st) drop_pending(cctx, seq);
    cctx.stats.count(&RmiStatsSnapshot::call_timeouts);
    cctx.stats.count(&RmiStatsSnapshot::machine_down_failures);
    trace_instant(trace::EventKind::CallTimeout, caller, callsite_id, seq);
    throw MachineDown(e.machine(),
                      what(std::string(" failed fast: ") + e.what()));
  } catch (const ProtocolError& e) {
    // The link's ARQ gave up: the callee is crashed or unreachable.  The
    // failure is synchronous (virtual-time timers, not wall-clock), so it
    // converts directly into the typed caller-visible form.
    if (st) drop_pending(cctx, seq);
    cctx.stats.count(&RmiStatsSnapshot::call_timeouts);
    trace_instant(trace::EventKind::CallTimeout, caller, callsite_id, seq);
    throw RmiTimeout(what(std::string(" undeliverable: ") + e.what()));
  }
  return RmiFuture(std::move(st));
}

om::ObjRef RmiSystem::finish_remote(AsyncCallState& st) {
  const std::uint16_t caller = st.caller;
  const std::uint32_t callsite_id = st.callsite_id;
  const std::uint32_t seq = st.seq;
  const CompiledCallSite& site = callsite(callsite_id);
  const serial::CallSitePlan& plan = *site.plan;
  MachineContext& cctx = *contexts_.at(caller);
  net::Machine& m = cluster_.machine(caller);

  // Nested-invoke deadlock guard: with a single dispatch worker, a handler
  // that performs a synchronous remote invoke from the dispatcher thread
  // waits for a reply only that same thread could process.  Before this
  // check the call hung until the retransmit budget drained (or forever on
  // a fault-free link).  Fail fast with a typed, recoverable error instead
  // — unless the reply is somehow already in hand.
  if (exec_cfg_.dispatch_workers == 1 &&
      std::this_thread::get_id() == cctx.dispatcher.get_id() &&
      st.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    drop_pending(cctx, seq);
    cctx.stats.count(&RmiStatsSnapshot::call_timeouts);
    trace_instant(trace::EventKind::CallTimeout, caller, callsite_id, seq);
    // Best-effort: tell the callee not to bother computing the reply.
    send_cancel_raw(caller, st.target.machine, callsite_id, seq);
    throw NestedInvokeDeadlock(
        "nested synchronous invoke via " + site_desc(callsite_id) +
        " from the dispatcher thread of machine " + std::to_string(caller) +
        " would deadlock: dispatch_workers == 1, so the reply could only be "
        "processed by the thread that is blocked waiting for it. Configure "
        "dispatch_workers >= 2 on the calling machine, or use invoke_oneway "
        "/ invoke_async with the future consumed off the dispatcher thread.");
  }

  PendingReply rep;
  try {
    rep = await_pending(cctx, caller, callsite_id, seq, std::move(st.fut),
                        st.target.machine);
  } catch (const RmiTimeout&) {
    trace_instant(trace::EventKind::CallTimeout, caller, callsite_id, seq);
    throw;
  }
  if (rep.msg.header.kind == wire::MsgKind::Ack) {
    trace_span(trace::EventKind::Call, caller, callsite_id, seq,
               st.call_start_ns, st.request_bytes);
    return nullptr;
  }

  const bool cycle_enabled = site.heavy || plan.needs_cycle_table;
  const std::uint64_t reply_bytes = rep.msg.payload.size();
  serial::SerialStats rpass;
  serial::SerialReader r(
      class_plans_, m.heap(), rpass, cycle_enabled,
      pass_trace(trace::EventKind::Deserialize, caller, callsite_id, seq));
  // Zero-copy receive: a non-HEAVY reply decoded from a pinned frame may
  // borrow its large primitive-array rows instead of copying them out.
  if (cluster_.cost().zero_copy_receive && !site.heavy) {
    r.enable_borrow(cluster_.cost().gather_min_borrow_bytes);
  }
  om::ObjRef value = nullptr;
  if (site.heavy) {
    value = r.read_introspective(rep.msg.payload);
  } else if (plan.reuse_ret) {
    ReuseSlot& slot = reuse_slot(cctx, /*ret_side=*/true, callsite_id, 1);
    om::ObjRef cached = nullptr;
    {
      std::scoped_lock lock(slot.mu);
      cached = slot.cached[0];
      slot.cached[0] = nullptr;  // multithreading guard (Fig. 13)
    }
    value = r.read_reusing(rep.msg.payload, *plan.ret, cached);
    {
      std::scoped_lock lock(slot.mu);
      slot.cached[0] = value;
    }
  } else {
    value = r.read(rep.msg.payload, *plan.ret);
  }
  account(caller, callsite_id, rpass);
  trace_span(trace::EventKind::Call, caller, callsite_id, seq,
             st.call_start_ns, st.request_bytes + reply_bytes);
  return value;
}

om::ObjRef RmiSystem::run_local(std::uint16_t caller, RemoteRef target,
                                const CompiledCallSite& site,
                                std::span<const om::ObjRef> args,
                                std::span<const std::int64_t> scalars,
                                std::uint32_t seq, std::int64_t deadline_ns,
                                bool oneway) {
  MachineContext& cctx = *contexts_.at(caller);
  net::Machine& m = cluster_.machine(caller);
  const std::uint32_t callsite_id = site.plan->id;
  const std::int64_t call_start_ns =
      recorder() != nullptr ? m.clock().now().as_nanos() : 0;
  std::future<PendingReply> fut;
  if (!oneway) fut = register_pending(cctx, seq, caller).get_future();
  charge_stub(caller, site, args.size(), scalars.size());

  // RMI parameter-passing semantics must hold regardless of placement
  // (§1): clone the argument graphs.
  serial::SerialStats pass;
  std::vector<om::ObjRef> cloned;
  cloned.reserve(args.size());
  for (om::ObjRef a : args) cloned.push_back(clone_graph(m.heap(), a, pass));
  account(caller, callsite_id, pass, 1, 0);

  // A oneway token suppresses every reply path, including a handler's
  // deferred send_reply.
  ReplyToken token{callsite_id, seq, caller, caller};
  token.oneway = oneway;
  m.clock().advance(SimTime::nanos(cluster_.cost().upcall_dispatch_ns));
  const HandlerOutcome out = run_handler(m, cctx, site, token, target.export_id,
                                         deadline_ns, nullptr, scalars, cloned);
  // Reply first: the return value may alias the argument graphs, so the
  // arguments stay live until the reply is out (as a GC would ensure).
  if (!out.res.deferred) send_outcome(cctx, token, out);
  if (!out.res.args_consumed) free_args(caller, callsite_id, cloned);
  if (oneway) return nullptr;

  PendingReply rep =
      await_pending(cctx, caller, callsite_id, seq, std::move(fut), caller);
  trace_span(trace::EventKind::LocalCall, caller, callsite_id, seq,
             call_start_ns);
  return rep.local_value;
}

RmiSystem::HandlerOutcome RmiSystem::run_handler(
    net::Machine& m, MachineContext& ctx, const CompiledCallSite& site,
    const ReplyToken& token, std::uint32_t target_export,
    std::int64_t deadline_ns, const CancelToken* cancel,
    std::span<const std::int64_t> scalars, std::span<const om::ObjRef> args) {
  HandlerOutcome out;
  om::ObjRef self = nullptr;
  {
    std::scoped_lock lock(ctx.exports_mu);
    // Externally-derived index: a bad export id becomes a remote
    // exception at the caller, not an abort.
    if (target_export >= ctx.exports.size()) {
      out.res = HandlerResult::exception("unknown export id " +
                                         std::to_string(target_export));
      return out;
    }
    self = ctx.exports[target_export];
  }
  CallContext cc(*this, m, self, token, deadline_ns, cancel);
  try {
    // Nested invokes inherit the remaining budget via the ambient
    // deadline (minus ExecutorConfig::deadline_slack_ns per hop).
    AmbientDeadlineScope scope(deadline_ns);
    out.res = methods_[site.method_id].second(cc, scalars, args);
  } catch (const DeadlineExceeded& e) {
    out.reject = wire::RejectCode::DeadlineExceeded;
    out.res = HandlerResult::exception(e.what());
  } catch (const Overload& e) {
    out.reject = wire::RejectCode::Overload;
    out.res = HandlerResult::exception(e.what());
  } catch (const Error& e) {
    out.res = HandlerResult::exception(e.what());
  }
  return out;
}

void RmiSystem::send_outcome(MachineContext& ctx, const ReplyToken& token,
                             const HandlerOutcome& out) {
  if (out.reject) {
    if (out.res.give_ownership && out.res.value != nullptr) {
      serial::SerialStats pass;
      pass.objects_freed +=
          cluster_.machine(token.callee_machine).heap().free_graph(
              out.res.value);
      account(token.callee_machine, token.callsite_id, pass);
    }
    reject_call(ctx, token, *out.reject, out.res.error);
  } else if (out.res.is_exception) {
    send_exception(token, out.res.error);
  } else {
    send_reply(token, out.res.value, out.res.give_ownership);
  }
}

void RmiSystem::send_reply(const ReplyToken& token, om::ObjRef value,
                           bool give_ownership) {
  const CompiledCallSite& site = callsite(token.callsite_id);
  const serial::CallSitePlan& plan = *site.plan;
  net::Machine& callee = cluster_.machine(token.callee_machine);
  // A oneway call has nowhere to send a value: its reply is only the
  // completion marker, and a per-call return value is just freed.
  const bool has_ret = plan.ret != nullptr && !token.oneway;

  wire::Message reply = reply_message(
      token, has_ret ? wire::MsgKind::Return : wire::MsgKind::Ack);
  reply.coalesce_hint = site.batch_replies;
  om::ObjRef local_value = nullptr;
  serial::SerialStats pass;
  if (token.caller_machine == token.callee_machine) {
    // Local reply: clone the return graph (copy semantics, §1).
    if (has_ret) local_value = clone_graph(callee.heap(), value, pass);
  } else if (has_ret) {
    const serial::CostModel& cmodel = cluster_.cost();
    if (cmodel.zero_copy_send && !site.heavy) {
      reply.gathered = std::make_shared<support::GatherBuffer>(
          cmodel.gather_min_borrow_bytes, cmodel.gather_pin_copy_threshold);
    }
    const bool cycle_enabled = site.heavy || plan.needs_cycle_table;
    serial::SerialWriter w(class_plans_, pass, cycle_enabled,
                           pass_trace(trace::EventKind::Serialize,
                                      token.callee_machine,
                                      token.callsite_id, token.seq));
    if (site.heavy) {
      w.write_introspective(reply.payload, value);
    } else if (reply.gathered) {
      w.write(*reply.gathered, *plan.ret, value);
    } else {
      w.write(reply.payload, *plan.ret, value);
    }
  }
  // Seal before the give_ownership free below and before the reply cache
  // takes its copy: borrowed spans may alias `value`'s payload rows, and
  // from here the frame image must be frozen (replayed duplicates and ARQ
  // retransmits must match the first transmission byte for byte).
  reply.seal_gathered();
  if (give_ownership && value != nullptr) {
    pass.objects_freed += callee.heap().free_graph(value);
  }
  account(token.callee_machine, token.callsite_id, pass);
  deliver_reply(*contexts_.at(token.callee_machine), token, std::move(reply),
                local_value);
}

void RmiSystem::send_exception(const ReplyToken& token, std::string message) {
  // A oneway call's exception has nowhere to go: deliver_reply only
  // records the call's completion.
  wire::Message reply = reply_message(token, wire::MsgKind::Exception);
  reply.payload.put_string(message);
  deliver_reply(*contexts_.at(token.callee_machine), token, std::move(reply));
}

// ---- dispatcher ---------------------------------------------------------------

void RmiSystem::dispatch_loop(std::uint16_t machine_id) {
  net::Machine& m = cluster_.machine(machine_id);
  MachineContext& ctx = *contexts_.at(machine_id);
  while (auto env = m.receive_blocking()) {
    const wire::MessageHeader h = env->msg.header;
    if (h.kind == wire::MsgKind::Call) {
      const bool oneway = (h.flags & wire::kFlagOneway) != 0;
      // At-most-once: a duplicate of a call already executing is dropped;
      // a duplicate of a call already answered gets the cached reply
      // re-sent verbatim (the handler never runs twice).  A duplicate of
      // a oneway call is suppressed silently — its completion marker is
      // never a real reply.
      const std::uint64_t key = call_key(h.source_machine, h.seq);
      wire::Message replay;
      switch (admit_call(machine_id, ctx, key, &replay)) {
        case CallAdmission::InProgress:
          ctx.stats.count(&RmiStatsSnapshot::duplicate_calls);
          trace_instant(trace::EventKind::DuplicateDropped, machine_id,
                        h.callsite_id, h.seq);
          continue;
        case CallAdmission::Replied:
          ctx.stats.count(&RmiStatsSnapshot::duplicate_calls);
          if (oneway) continue;
          ctx.stats.count(&RmiStatsSnapshot::replayed_replies);
          trace_instant(trace::EventKind::ReplyReplayed, machine_id,
                        h.callsite_id, h.seq);
          try {
            cluster_.send(std::move(replay));
          } catch (const ProtocolError&) {
            ctx.stats.count(&RmiStatsSnapshot::undeliverable_replies);
          }
          continue;
        case CallAdmission::Fresh:
          break;
      }
      ReplyToken token{h.callsite_id, h.seq, h.source_machine, machine_id};
      token.oneway = oneway;
      if (h.callsite_id >= callsites_.size()) {
        // Externally-derived index: answer with a typed remote exception
        // instead of bringing the callee down.
        send_exception(token, "unknown call site " +
                                  std::to_string(h.callsite_id));
        continue;
      }
      // Deadline gate: refuse to even *decode* a call whose deadline has
      // passed — the caller already timed out, so every cycle spent here
      // is wasted.  The Reject is cached as the call's tombstone.
      if (h.deadline_ns != 0 &&
          m.clock().now().as_nanos() >= h.deadline_ns) {
        ctx.stats.count(&RmiStatsSnapshot::deadline_rejects);
        trace_instant(trace::EventKind::DeadlineReject, machine_id,
                      h.callsite_id, h.seq);
        reject_call(ctx, token, wire::RejectCode::DeadlineExceeded,
                    "deadline expired before dispatch at " +
                        site_desc(h.callsite_id));
        continue;
      }
      // Deserialize on the dispatcher (the unmarshaler lock discipline of
      // §4), then hand the handler to the executor — inline with one
      // worker, concurrent with a pool.
      std::shared_ptr<DecodedCall> call;
      try {
        call = std::make_shared<DecodedCall>(
            decode_call(machine_id, std::move(*env)));
      } catch (const Error& e) {
        // A call whose payload does not match its plan (possible only
        // from hand-crafted or damaged-but-checksum-colliding input) is
        // answered exceptionally, not fatally.
        send_exception(token, std::string("undecodable call: ") + e.what());
        continue;
      }
      // Register the cancellation flag before the handler is queued.  The
      // per-link FIFO means a CancelRequest for this call can only be
      // processed after this point, so the lookup below never misses a
      // cancellable call.
      call->cancel = std::make_shared<CancelToken>();
      {
        std::scoped_lock lock(ctx.cancel_mu);
        ctx.cancel_tokens[key] = call->cancel;
      }
      ctx.executor->execute([this, machine_id, call] {
        execute_call(machine_id, std::move(*call));
      });
      continue;
    }
    if (h.kind == wire::MsgKind::Cancel) {
      // Best-effort cancellation: flag the call if it is still here.  A
      // miss means the call already completed (or was never admitted) —
      // the cancel simply lost the race.
      std::shared_ptr<CancelToken> tok;
      {
        std::scoped_lock lock(ctx.cancel_mu);
        auto it = ctx.cancel_tokens.find(call_key(h.source_machine, h.seq));
        if (it != ctx.cancel_tokens.end()) tok = it->second;
      }
      if (tok) tok->request();
      continue;
    }
    if (h.kind == wire::MsgKind::Heartbeat) {
      // Defensive: detector probes never enter inboxes (they terminate in
      // the detector's own sink), but a hand-crafted frame could carry the
      // kind.  Swallow it rather than misread it as a reply.
      continue;
    }
    // A reply: wake the caller blocked on this sequence number.  A reply
    // nobody is waiting for (stray duplicate, or the caller already timed
    // out) is dropped and counted, never fatal.
    PendingReply rep;
    const std::uint32_t seq = h.seq;
    rep.msg = std::move(env->msg);
    if (try_fulfill_pending(ctx, seq, std::move(rep))) {
      trace_instant(trace::EventKind::ReplyDeliver, machine_id,
                    h.callsite_id, seq);
    } else {
      ctx.stats.count(&RmiStatsSnapshot::stray_replies);
    }
  }
}

RmiSystem::DecodedCall RmiSystem::decode_call(std::uint16_t machine_id,
                                              net::Envelope env) {
  net::Machine& m = cluster_.machine(machine_id);
  MachineContext& ctx = *contexts_.at(machine_id);
  const wire::MessageHeader& h = env.msg.header;
  const CompiledCallSite& site = callsite(h.callsite_id);
  const serial::CallSitePlan& plan = *site.plan;
  const bool cycle_enabled = site.heavy || plan.needs_cycle_table;

  DecodedCall call;
  call.callsite_id = h.callsite_id;
  call.seq = h.seq;
  call.source = h.source_machine;
  call.target_export = h.target_export;
  call.deadline_ns = h.deadline_ns;
  call.oneway = (h.flags & wire::kFlagOneway) != 0;

  // Scalars.
  const std::size_t nscalars = env.msg.payload.get_varint();
  // Skeleton machinery (generic vs generated unmarshaler).
  charge_stub(machine_id, site, plan.args.size(), nscalars);
  call.scalars.resize(nscalars);
  for (auto& s : call.scalars) s = env.msg.payload.get_i64();

  // Object arguments.
  serial::SerialStats pass;
  serial::SerialReader reader(
      class_plans_, m.heap(), pass, cycle_enabled,
      pass_trace(trace::EventKind::Deserialize, machine_id, h.callsite_id,
                 h.seq));
  // Zero-copy receive: non-HEAVY argument decodes from a pinned frame may
  // borrow large primitive-array rows straight out of it (threshold shared
  // with the send-side gather — the crossover is the same iovec-vs-memcpy
  // trade in the other direction).
  if (cluster_.cost().zero_copy_receive && !site.heavy) {
    reader.enable_borrow(cluster_.cost().gather_min_borrow_bytes);
  }
  call.args.assign(plan.args.size(), nullptr);
  call.reuse = plan.reuse_args && !site.heavy;
  if (call.reuse) {
    call.slot = &reuse_slot(ctx, /*ret_side=*/false, h.callsite_id,
                            plan.args.size());
    std::scoped_lock lock(call.slot->mu);
    // Take the cached roots and leave nulls behind: the guard against
    // concurrent executions of this unmarshaler (Fig. 13: "temp_arr =
    // null" while in use).
    call.args.swap(call.slot->cached);
    // The slot is detached, so the reader owns the old graphs: it reuses
    // them across all arguments and releases what none consumed (or all of
    // it, if the decode throws).
    reader.adopt_cache_roots(call.args);
  }
  for (std::size_t i = 0; i < call.args.size(); ++i) {
    if (site.heavy) {
      call.args[i] = reader.read_introspective(env.msg.payload);
    } else if (call.reuse) {
      call.args[i] = reader.read_adopted(env.msg.payload, *plan.args[i],
                                         call.args[i]);
    } else {
      call.args[i] = reader.read(env.msg.payload, *plan.args[i]);
    }
  }
  if (call.reuse) reader.release_orphans();
  account(machine_id, h.callsite_id, pass);
  return call;
}

void RmiSystem::execute_call(std::uint16_t machine_id, DecodedCall call) {
  net::Machine& m = cluster_.machine(machine_id);
  MachineContext& ctx = *contexts_.at(machine_id);
  const CompiledCallSite& site = callsite(call.callsite_id);
  m.clock().advance(SimTime::nanos(cluster_.cost().upcall_dispatch_ns));

  ReplyToken token{call.callsite_id, call.seq, call.source, machine_id};
  token.oneway = call.oneway;
  // Put the decoded arguments back where they belong: reinsert into the
  // reuse slot (§3.3) or free the graphs.  The cancellation flag is only
  // live while the call is here: once the reply (or reject) is decided, a
  // late cancel has lost the race.
  auto finish = [&](bool args_consumed) {
    if (call.reuse) {
      RMIOPT_CHECK(!args_consumed,
                   "reuse_args call site must not consume its arguments");
      std::scoped_lock lock(call.slot->mu);
      call.slot->cached = call.args;
    } else if (!args_consumed) {
      free_args(machine_id, call.callsite_id, call.args);
    }
    if (call.cancel) {
      std::scoped_lock lock(ctx.cancel_mu);
      ctx.cancel_tokens.erase(call_key(call.source, call.seq));
    }
  };
  // Reuse-slot boundary polls: a call cancelled while it sat in the
  // executor queue (#1, before the handler) or while the handler ran (#2,
  // before the reply) is refused with a typed Cancelled reject; the
  // tombstone answers any duplicate instead of re-execution.
  auto cancel_requested = [&] {
    if (!call.cancel || !call.cancel->requested()) return false;
    ctx.stats.count(&RmiStatsSnapshot::cancels_honored);
    trace_instant(trace::EventKind::CancelHonored, machine_id,
                  call.callsite_id, call.seq);
    return true;
  };

  if (cancel_requested()) {
    reject_call(ctx, token, wire::RejectCode::Cancelled,
                "cancelled before execution at " +
                    site_desc(call.callsite_id));
    finish(false);
    return;
  }
  if (call.deadline_ns != 0 &&
      m.clock().now().as_nanos() >= call.deadline_ns) {
    ctx.stats.count(&RmiStatsSnapshot::deadline_rejects);
    trace_instant(trace::EventKind::DeadlineReject, machine_id,
                  call.callsite_id, call.seq);
    reject_call(ctx, token, wire::RejectCode::DeadlineExceeded,
                "deadline expired before execution at " +
                    site_desc(call.callsite_id));
    finish(false);
    return;
  }

  const std::int64_t handler_start_ns =
      recorder() != nullptr ? m.clock().now().as_nanos() : 0;
  HandlerOutcome out =
      run_handler(m, ctx, site, token, call.target_export, call.deadline_ns,
                  call.cancel.get(), call.scalars, call.args);
  trace_span(trace::EventKind::HandlerRun, machine_id, call.callsite_id,
             call.seq, handler_start_ns);

  // Reply first: the return value may alias the argument graphs, so the
  // arguments stay live until the reply is serialized (as a GC would
  // ensure).  Handlers whose *deferred* reply uses argument data must set
  // args_consumed and manage the graphs themselves.
  if (!out.res.deferred) {
    if (cancel_requested()) {
      out.reject = wire::RejectCode::Cancelled;
      out.res.error = "reply abandoned after cancellation at " +
                      site_desc(call.callsite_id);
    }
    send_outcome(ctx, token, out);
  }
  finish(out.res.args_consumed);
}

RmiStatsSnapshot RmiSystem::callsite_stats(std::uint32_t callsite_id) const {
  std::scoped_lock lock(site_stats_mu_);
  auto it = site_stats_.find(callsite_id);
  return it == site_stats_.end() ? RmiStatsSnapshot{} : it->second;
}

std::string RmiSystem::report() const {
  std::string out =
      "call site                                 level                 "
      "local      remote     reused     new(KB)    cycle lookups\n";
  for (std::size_t id = 0; id < callsites_.size(); ++id) {
    const RmiStatsSnapshot s =
        callsite_stats(static_cast<std::uint32_t>(id));
    char line[256];
    std::snprintf(line, sizeof line,
                  "%-40s  %-20s  %-9llu  %-9llu  %-9llu  %-9.1f  %llu\n",
                  callsites_[id].plan->name.c_str(),
                  std::string(codegen::to_string(callsites_[id].level))
                      .c_str(),
                  static_cast<unsigned long long>(s.local_rpcs),
                  static_cast<unsigned long long>(s.remote_rpcs),
                  static_cast<unsigned long long>(s.serial.objects_reused),
                  static_cast<double>(s.serial.bytes_allocated) / 1024.0,
                  static_cast<unsigned long long>(s.serial.cycle_lookups));
    out += line;
  }
  return out;
}

CallSiteProfile RmiSystem::export_profile() const {
  CallSiteProfile profile;
  for (std::size_t id = 0; id < callsites_.size(); ++id) {
    const std::uint32_t tag = callsites_[id].tag;
    if (tag == 0) continue;  // hand-built site: no compile-time identity
    const RmiStatsSnapshot s = callsite_stats(static_cast<std::uint32_t>(id));
    CallSiteProfileRow& row = profile.by_tag[tag];
    row.tag = tag;
    row.invocations += s.local_rpcs + s.remote_rpcs;
    row.remote_rpcs += s.remote_rpcs;
    row.reused_objects += s.serial.objects_reused;
    row.cycle_lookups += s.serial.cycle_lookups;
    row.bytes_allocated += s.serial.bytes_allocated;
  }
  return profile;
}

RmiStatsSnapshot RmiSystem::stats(std::uint16_t machine) const {
  return contexts_.at(machine)->stats.snapshot();
}

RmiStatsSnapshot RmiSystem::total_stats() const {
  RmiStatsSnapshot total;
  for (const auto& ctx : contexts_) total += ctx->stats.snapshot();
  return total;
}

}  // namespace rmiopt::rmi
