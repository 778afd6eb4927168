// Google-benchmark microbenchmarks: *real wall-clock* throughput of the
// three serializer families on this machine.
//
// These complement the table benches (which report deterministic virtual
// time): they demonstrate that the generated-code *structure* itself —
// independent of the calibrated cost model — favors call-site plans: no
// per-object dispatch, no type info, no cycle probes; and they compare
// in-place reuse against fresh allocation on deserialization, for a bulk
// matrix and for a 100-node list whose reuse bookkeeping walks every node.
// The frame codec rows time what every transported frame pays on top:
// encode with its CRC-32C, and checksum-verified decode.
#include <benchmark/benchmark.h>

#include "objmodel/heap.hpp"
#include "serial/class_plans.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "support/rng.hpp"
#include "wire/framing.hpp"

namespace {

using namespace rmiopt;

struct Fixture {
  om::TypeRegistry types;
  serial::ClassPlanRegistry class_plans{types};
  om::Heap heap{types};
  om::ClassId row = om::kNoClass;
  om::ClassId mat = om::kNoClass;
  om::ObjRef matrix = nullptr;
  std::unique_ptr<serial::NodePlan> site_plan;

  Fixture() {
    row = types.register_prim_array(om::TypeKind::Double);
    mat = types.register_ref_array(row);
    matrix = heap.alloc_array(mat, 16);
    for (std::uint32_t r = 0; r < 16; ++r) {
      om::ObjRef rr = heap.alloc_array(row, 16);
      auto e = rr->elems<double>();
      for (std::uint32_t c = 0; c < 16; ++c) e[c] = r * 16.0 + c;
      matrix->set_elem_ref(r, rr);
    }
    auto inner = std::make_unique<serial::NodePlan>();
    inner->expected_class = row;
    site_plan = std::make_unique<serial::NodePlan>();
    site_plan->expected_class = mat;
    site_plan->elem_plan = std::move(inner);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_SerializeIntrospective(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    serial::SerialStats stats;
    serial::SerialWriter w(f.class_plans, stats, /*cycle_enabled=*/true);
    ByteBuffer out;
    w.write_introspective(out, f.matrix);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_SerializeIntrospective);

void BM_SerializeClassSpecific(benchmark::State& state) {
  Fixture& f = fixture();
  auto root = serial::make_dynamic_node(f.mat);
  for (auto _ : state) {
    serial::SerialStats stats;
    serial::SerialWriter w(f.class_plans, stats, /*cycle_enabled=*/true);
    ByteBuffer out;
    w.write(out, *root, f.matrix);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_SerializeClassSpecific);

void BM_SerializeCallSite(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    serial::SerialStats stats;
    serial::SerialWriter w(f.class_plans, stats, /*cycle_enabled=*/false);
    ByteBuffer out;
    w.write(out, *f.site_plan, f.matrix);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_SerializeCallSite);

void BM_DeserializeCallSiteFresh(benchmark::State& state) {
  Fixture& f = fixture();
  serial::SerialStats ws;
  serial::SerialWriter w(f.class_plans, ws, false);
  ByteBuffer buf;
  w.write(buf, *f.site_plan, f.matrix);
  for (auto _ : state) {
    buf.rewind();
    serial::SerialStats rs;
    serial::SerialReader r(f.class_plans, f.heap, rs, false);
    om::ObjRef copy = r.read(buf, *f.site_plan);
    benchmark::DoNotOptimize(copy);
    f.heap.free_graph(copy);
  }
}
BENCHMARK(BM_DeserializeCallSiteFresh);

void BM_DeserializeCallSiteReusing(benchmark::State& state) {
  Fixture& f = fixture();
  serial::SerialStats ws;
  serial::SerialWriter w(f.class_plans, ws, false);
  ByteBuffer buf;
  w.write(buf, *f.site_plan, f.matrix);
  serial::SerialStats rs0;
  serial::SerialReader r0(f.class_plans, f.heap, rs0, false);
  om::ObjRef cached = r0.read(buf, *f.site_plan);
  for (auto _ : state) {
    buf.rewind();
    serial::SerialStats rs;
    serial::SerialReader r(f.class_plans, f.heap, rs, false);
    cached = r.read_reusing(buf, *f.site_plan, cached);
    benchmark::DoNotOptimize(cached);
  }
  f.heap.free_graph(cached);
}
BENCHMARK(BM_DeserializeCallSiteReusing);

// ---- 100-node list: fresh allocation vs in-place reuse ---------------------
// The Table 1 argument under its call-site plan (inline head, dynamic
// recursive tail, cycle checks on).  Unlike the matrix rows, reuse here has
// per-node bookkeeping — adopt the cached graph, consume each node, release
// orphans — so these rows show whether that costs less than the 100
// allocations (and frees) it saves.

struct ListFixture {
  om::TypeRegistry types;
  serial::ClassPlanRegistry class_plans{types};
  om::Heap heap{types};
  serial::NodePlan plan;
  ByteBuffer wire;

  ListFixture() {
    const om::ClassId node = types.define_class(
        "LinkedList",
        {{"val", om::TypeKind::Int}, {"Next", om::TypeKind::Ref}});
    const om::ClassDescriptor& c = types.get(node);
    om::ObjRef list = nullptr;
    for (int i = 99; i >= 0; --i) {
      om::ObjRef n = heap.alloc(c);
      n->set<std::int32_t>(c.fields[0], i);
      n->set_ref(c.fields[1], list);
      list = n;
    }
    plan.expected_class = node;
    plan.cycle_check = true;
    serial::NodePlan::FieldAction val;
    val.field = &c.fields[0];
    plan.fields.push_back(std::move(val));
    serial::NodePlan::FieldAction next;
    next.field = &c.fields[1];
    next.ref_plan = serial::make_dynamic_node(node);
    next.ref_plan->cycle_check = true;
    plan.fields.push_back(std::move(next));

    serial::SerialStats ws;
    serial::SerialWriter w(class_plans, ws, /*cycle_enabled=*/true);
    w.write(wire, plan, list);
    heap.free_graph(list);
  }
};

void BM_DeserializeList100Fresh(benchmark::State& state) {
  ListFixture f;
  for (auto _ : state) {
    f.wire.rewind();
    serial::SerialStats rs;
    serial::SerialReader r(f.class_plans, f.heap, rs, true);
    om::ObjRef copy = r.read(f.wire, f.plan);
    benchmark::DoNotOptimize(copy);
    f.heap.free_graph(copy);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_DeserializeList100Fresh);

void BM_DeserializeList100Reusing(benchmark::State& state) {
  ListFixture f;
  om::ObjRef cached = nullptr;
  for (auto _ : state) {
    f.wire.rewind();
    serial::SerialStats rs;
    serial::SerialReader r(f.class_plans, f.heap, rs, true);
    cached = r.read_reusing(f.wire, f.plan, cached);
    benchmark::DoNotOptimize(cached);
  }
  state.SetItemsProcessed(state.iterations() * 100);
  f.heap.free_graph(cached);
}
BENCHMARK(BM_DeserializeList100Reusing);

// ---- receive path: copy out vs borrow from the pinned frame ----------------
// One 8-row matrix whose row payload is Arg(0) bytes, decoded from a
// refcounted frame image.  The copy variant materializes rows into fresh
// inline storage; the borrow variant hands out spans into the pinned
// frame (what zero_copy_receive does for rows >= gather_min_borrow_bytes).
// Sweeping the row size shows where borrowing starts to win in real time —
// the wall-clock justification for the threshold default.

struct RecvFixture {
  om::TypeRegistry types;
  serial::ClassPlanRegistry class_plans{types};
  om::Heap heap{types};
  std::unique_ptr<serial::NodePlan> plan;
  std::shared_ptr<std::vector<std::uint8_t>> frame;

  explicit RecvFixture(std::uint32_t row_bytes) {
    const om::ClassId row = types.register_prim_array(om::TypeKind::Double);
    const om::ClassId mat = types.register_ref_array(row);
    const auto cols =
        static_cast<std::uint32_t>(row_bytes / sizeof(double));
    om::ObjRef m = heap.alloc_array(mat, 8);
    for (std::uint32_t r = 0; r < 8; ++r) {
      om::ObjRef rr = heap.alloc_array(row, cols);
      auto e = rr->elems<double>();
      for (std::uint32_t c = 0; c < cols; ++c) e[c] = r * 1000.0 + c;
      m->set_elem_ref(r, rr);
    }
    auto inner = std::make_unique<serial::NodePlan>();
    inner->expected_class = row;
    plan = std::make_unique<serial::NodePlan>();
    plan->expected_class = mat;
    plan->elem_plan = std::move(inner);

    serial::SerialStats ws;
    serial::SerialWriter w(class_plans, ws, false);
    ByteBuffer buf;
    w.write(buf, *plan, m);
    heap.free_graph(m);
    frame =
        std::make_shared<std::vector<std::uint8_t>>(std::move(buf).take());
  }
};

void deserialize_receive(benchmark::State& state, bool borrow) {
  RecvFixture f(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    ByteBuffer in = ByteBuffer::view(f.frame->data(), f.frame->size(), f.frame);
    serial::SerialStats rs;
    serial::SerialReader r(f.class_plans, f.heap, rs, false);
    if (borrow) r.enable_borrow(/*min_bytes=*/1);
    om::ObjRef copy = r.read(in, *f.plan);
    benchmark::DoNotOptimize(copy);
    f.heap.free_graph(copy);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(8 * state.range(0)));
}

void BM_DeserializeReceiveCopy(benchmark::State& state) {
  deserialize_receive(state, /*borrow=*/false);
}
BENCHMARK(BM_DeserializeReceiveCopy)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DeserializeReceiveBorrow(benchmark::State& state) {
  deserialize_receive(state, /*borrow=*/true);
}
BENCHMARK(BM_DeserializeReceiveBorrow)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_CycleTableProbe(benchmark::State& state) {
  Fixture& f = fixture();
  std::vector<om::ObjRef> objs;
  for (int i = 0; i < 256; ++i) objs.push_back(f.heap.alloc_array(f.row, 1));
  for (auto _ : state) {
    serial::CycleTable t(64);
    for (om::ObjRef o : objs) benchmark::DoNotOptimize(t.lookup_or_insert(o));
  }
  state.SetItemsProcessed(state.iterations() * 256);
  for (om::ObjRef o : objs) f.heap.free(o);
}
BENCHMARK(BM_CycleTableProbe);

// Frame codec on the default (copying) transport path: tag, CRC-32C and
// one message carrying `range(0)` payload bytes (64 B ~ a list100 reply,
// 2 KiB ~ an array16 call).  The payload is built at run time.
wire::Frame payload_frame(std::size_t payload_bytes) {
  wire::Frame frame;
  frame.link_seq = 12345;
  wire::Message m;
  m.header.kind = wire::MsgKind::Call;
  m.header.callsite_id = 3;
  m.header.seq = 77;
  m.header.dest_machine = 1;
  SplitMix64 rng(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    m.payload.put_u8(static_cast<std::uint8_t>(rng.next()));
  }
  frame.messages.push_back(std::move(m));
  return frame;
}

void BM_FrameEncode(benchmark::State& state) {
  const wire::Frame frame = payload_frame(state.range(0));
  for (auto _ : state) {
    ByteBuffer image = wire::encode_frame(frame);
    benchmark::DoNotOptimize(image.contents().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameEncode)->Arg(64)->Arg(2048);

void BM_FrameDecode(benchmark::State& state) {
  ByteBuffer image = wire::encode_frame(payload_frame(state.range(0)));
  for (auto _ : state) {
    image.rewind();
    wire::Frame back = wire::decode_frame(image);
    benchmark::DoNotOptimize(back.messages.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameDecode)->Arg(64)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
