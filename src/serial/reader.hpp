// SerialReader: executes unmarshal plans to reconstitute object graphs
// from wire bytes, with optional argument/return-value reuse (§3.3).
//
// One SerialReader corresponds to one deserialization pass (one message).
// It tracks every allocation it performs — that is the "new (MBytes)"
// column of Tables 4/6/8 — and, in reuse mode, rewrites a cached graph from
// a previous invocation in place instead of allocating, exactly like the
// generated unmarshaler of Figure 13 (including the runtime type/size
// check and the fresh-allocation fallback on mismatch).
//
// Reuse runs in three steps over one pass, however many values it decodes:
//   adopt    adopt_cache_roots walks every cached root once; each node
//            reached becomes Adopted (owned by this pass);
//   consume  read_adopted may rewrite a cached node in place only while
//            it is Adopted, which flips it to Consumed — so no node is
//            matched twice, even when the cached graph had sharing;
//   release  release_orphans frees the nodes still Adopted, once, after
//            the last value (a later value may still reach them).
// read_reusing runs all three for a single value.  The bookkeeping lives in
// per-thread recycled scratch (support::Scratch), so a steady-state pass
// performs no heap allocation of its own.
#pragma once

#include <chrono>
#include <span>
#include <vector>

#include "objmodel/heap.hpp"
#include "serial/class_plans.hpp"
#include "serial/plan.hpp"
#include "serial/stats.hpp"
#include "support/bytebuffer.hpp"
#include "support/scratch.hpp"
#include "trace/trace.hpp"

namespace rmiopt::serial {

class SerialReader {
 public:
  // `pt` optionally traces the pass: with a recorder attached the reader
  // emits one Deserialize event when it is destroyed (one instance == one
  // pass), carrying the pass's virtual cost and its measured real-time
  // duration.  The default (null recorder) records nothing and reads no
  // clock.
  SerialReader(const ClassPlanRegistry& class_plans, om::Heap& heap,
               SerialStats& stats, bool cycle_enabled,
               trace::PassTrace pt = {});
  ~SerialReader();
  SerialReader(const SerialReader&) = delete;
  SerialReader& operator=(const SerialReader&) = delete;

  // Deserializes one value according to `plan`, allocating fresh objects.
  om::ObjRef read(ByteBuffer& in, const NodePlan& plan);

  // Deserializes one value, reusing the graph rooted at `cached` (from the
  // previous invocation at this call site) wherever runtime type and array
  // sizes match.  Cached objects that the incoming stream did not match are
  // freed.  Pass `cached == nullptr` for the cold first call.  This is
  // adopt → consume → release for one root; it must not be mixed with an
  // open adopt_cache_roots pass.
  om::ObjRef read_reusing(ByteBuffer& in, const NodePlan& plan,
                          om::ObjRef cached);

  // Adopt: takes ownership of the cached graphs this pass may consume.
  // Once a reuse slot has been detached (nulled against concurrent use),
  // the reader is the only owner of the old graphs; adopting them up front
  // also lets an abandoned pass release graphs the stream never reached.
  void adopt_cache_roots(std::span<const om::ObjRef> roots);

  // Consume: deserializes one value, rewriting Adopted nodes of the graph
  // rooted at `cached` in place where runtime type and array size match.
  // Nodes that were never adopted, or were already consumed, are not
  // reused; the stream gets fresh objects there instead.
  om::ObjRef read_adopted(ByteBuffer& in, const NodePlan& plan,
                          om::ObjRef cached);

  // Release: frees every adopted node no value consumed.  Call once, after
  // the last read_adopted of the pass.
  void release_orphans();

  // Deserializes a HEAVY (introspective) stream.
  om::ObjRef read_introspective(ByteBuffer& in);

  // Arms zero-copy receive for this pass: inline primitive-array rows of
  // at least `min_bytes` payload are materialized as borrowed spans into
  // the input's pinned frame (requires `in.pin() != nullptr`) instead of
  // being copied into fresh heap storage.  The runtime turns this on only
  // for non-HEAVY sites when CostModel::zero_copy_receive is set.
  void enable_borrow(std::size_t min_bytes) { borrow_min_ = min_bytes; }

 private:
  // The pass's bookkeeping, borrowed from a per-thread free list.  Every
  // adopted node is in exactly one state: Adopted (a member of `adopted`)
  // or Consumed (moved to `consumed`, which only abandon_pass reads).
  struct Bookkeeping {
    om::ObjSet adopted;
    std::vector<om::ObjRef> consumed;  // reused cache nodes
    std::vector<om::ObjRef> fresh;     // allocated by this pass
    std::vector<om::ObjRef> handles;   // back-reference targets, wire order
    void clear() {
      adopted.clear();
      consumed.clear();
      fresh.clear();
      handles.clear();
    }
  };

  om::ObjRef read_node(ByteBuffer& in, const NodePlan& plan,
                       om::ObjRef cached);
  om::ObjRef read_introspective_node(ByteBuffer& in);
  // Flips `cached` from Adopted to Consumed; false when it was not Adopted.
  bool consume(om::ObjRef cached);

  // Releases everything this pass owns — fresh allocations and every
  // adopted cache node, Consumed or not.  Called when a decode pass throws on corrupt input: the
  // partially-built graph is unreachable, so the reader must unwind it.
  void abandon_pass();
  om::ObjRef read_body(ByteBuffer& in, const NodePlan& body,
                       const om::ClassDescriptor& cls, bool node_cycle_check,
                       om::ObjRef cached);
  om::ObjRef fresh_alloc(const om::ClassDescriptor& cls, std::uint32_t length);
  om::ObjRef borrowed_alloc(const om::ClassDescriptor& cls,
                            std::uint32_t length, ByteBuffer& in);
  void note_handle(om::ObjRef obj, bool node_cycle_check);

  const ClassPlanRegistry& class_plans_;
  const om::TypeRegistry& types_;
  om::Heap& heap_;
  SerialStats& stats_;
  const bool cycle_enabled_;
  std::size_t borrow_min_ = 0;  // 0 = borrowing disabled (the default)
  const trace::PassTrace pt_;
  std::chrono::steady_clock::time_point real_start_;
  support::Scratch<Bookkeeping> book_;
};

}  // namespace rmiopt::serial
