// Steady-state allocation check for the §3.3 reuse deserializer.
//
// Its own executable because it replaces the global operator new/delete
// with counting versions.  After a warm-up, decoding a 100-node list into
// the cached graph of the previous pass must perform no global allocation
// at all: every node is rewritten in place, and the reader's bookkeeping
// (adopted set, consumed list, handle table, walk stack) comes from
// recycled per-thread scratch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "serial/class_plans.hpp"
#include "serial/plan.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace rmiopt::serial {
namespace {

TEST(ReuseSteadyState, ReadReusingList100AllocatesNothing) {
  om::TypeRegistry types;
  ClassPlanRegistry class_plans(types);
  om::Heap heap(types);
  const om::ClassId node = types.define_class(
      "LinkedList", {{"val", om::TypeKind::Int}, {"Next", om::TypeKind::Ref}});
  const om::ClassDescriptor& c = types.get(node);

  om::ObjRef list = nullptr;
  for (int i = 99; i >= 0; --i) {
    om::ObjRef n = heap.alloc(c);
    n->set<std::int32_t>(c.fields[0], i);
    n->set_ref(c.fields[1], list);
    list = n;
  }
  // The Table 1 call-site plan: inline head, dynamic recursive tail, cycle
  // checks on (100 probes per pass, as in the list100 workload).
  NodePlan plan;
  plan.expected_class = node;
  plan.cycle_check = true;
  NodePlan::FieldAction val;
  val.field = &c.fields[0];
  plan.fields.push_back(std::move(val));
  NodePlan::FieldAction next;
  next.field = &c.fields[1];
  next.ref_plan = make_dynamic_node(node);
  next.ref_plan->cycle_check = true;
  plan.fields.push_back(std::move(next));

  SerialStats ws;
  SerialWriter w(class_plans, ws, /*cycle_enabled=*/true);
  ByteBuffer buf;
  w.write(buf, plan, list);

  om::ObjRef cached = nullptr;
  auto pass = [&](SerialStats& rs) {
    buf.rewind();
    SerialReader r(class_plans, heap, rs, /*cycle_enabled=*/true);
    cached = r.read_reusing(buf, plan, cached);
  };
  for (int i = 0; i < 10; ++i) {
    SerialStats rs;
    pass(rs);
  }

  const std::uint64_t before = g_allocs.load();
  std::uint64_t reused = 0;
  for (int i = 0; i < 1000; ++i) {
    SerialStats rs;
    pass(rs);
    reused += rs.objects_reused;
  }
  const std::uint64_t allocs = g_allocs.load() - before;

  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(reused, 1000u * 100u);
  EXPECT_TRUE(om::deep_equals(cached, list));
  heap.free_graph(cached);
  heap.free_graph(list);
}

}  // namespace
}  // namespace rmiopt::serial
