// Tests for the zero-copy receive path: the FramePool freelist, borrowed
// primitive-array storage (copy-on-write detach, reuse-slot rebind), the
// pin lifetime that keeps receive frames alive exactly as long as some
// object borrows from them, and the end-to-end guarantees — stopping the
// runtime with live borrowed graphs leaks nothing, and duplicated frames
// resolved from the dedup window/reply cache never alias a recycled
// pooled buffer.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "apps/microbench.hpp"
#include "rmi/runtime.hpp"
#include "serial/class_plans.hpp"
#include "serial/plan.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "support/frame_pool.hpp"

namespace rmiopt {
namespace {

// ---- FramePool unit ---------------------------------------------------------

TEST(FramePool, MissThenRecycleThenHit) {
  support::FramePool pool;
  {
    support::FramePool::BlockRef b = pool.acquire(128);
    ASSERT_NE(b, nullptr);
    EXPECT_GE(b->bytes.capacity(), 128u);
    EXPECT_EQ(pool.counters().misses, 1u);
    EXPECT_EQ(pool.counters().hits, 0u);
    EXPECT_EQ(pool.free_blocks(), 0u);  // still pinned by `b`
  }
  // Last ref dropped: the block is back on the freelist...
  EXPECT_EQ(pool.free_blocks(), 1u);
  // ...and the next acquire recycles it, cleared.
  support::FramePool::BlockRef b2 = pool.acquire(64);
  EXPECT_TRUE(b2->bytes.empty());
  EXPECT_EQ(pool.counters().hits, 1u);
  EXPECT_EQ(pool.counters().misses, 1u);
}

TEST(FramePool, CopiesOfTheRefPinTheBlock) {
  support::FramePool pool;
  support::FramePool::BlockRef a = pool.acquire(16);
  support::FramePool::BlockRef borrow = a;  // a second pin, e.g. a message view
  a.reset();
  EXPECT_EQ(pool.free_blocks(), 0u);  // the borrow still holds it
  borrow.reset();
  EXPECT_EQ(pool.free_blocks(), 1u);
}

TEST(FramePool, FreelistIsBounded) {
  support::FramePool pool(/*max_free=*/2);
  std::vector<support::FramePool::BlockRef> live;
  for (int i = 0; i < 5; ++i) live.push_back(pool.acquire(8));
  live.clear();  // five releases against a ring of two
  EXPECT_EQ(pool.free_blocks(), 2u);
}

TEST(FramePool, BlockOutlivesThePool) {
  // A borrowed object can drop the last pin after its machine (and the
  // machine's pool) is gone — the deleter keeps the core alive.
  support::FramePool::BlockRef survivor;
  {
    support::FramePool pool;
    survivor = pool.acquire(32);
    survivor->bytes.assign(32, 0xcd);
  }
  EXPECT_EQ(survivor->bytes[31], 0xcd);
  survivor.reset();  // must not crash or leak
}

// ---- borrowed storage: COW detach and reuse rebind --------------------------

class ZeroCopyRecvTest : public ::testing::Test {
 protected:
  ZeroCopyRecvTest() : class_plans(types), heap(types) {
    row_id = types.register_prim_array(om::TypeKind::Double);
    mat_id = types.register_ref_array(row_id);
  }

  om::ObjRef make_matrix(std::uint32_t rows, std::uint32_t cols,
                         double base) {
    om::ObjRef m = heap.alloc_array(mat_id, rows);
    for (std::uint32_t r = 0; r < rows; ++r) {
      om::ObjRef row = heap.alloc_array(row_id, cols);
      auto e = row->elems<double>();
      for (std::uint32_t c = 0; c < cols; ++c) e[c] = base + r * 100.0 + c;
      m->set_elem_ref(r, row);
    }
    return m;
  }

  std::unique_ptr<serial::NodePlan> matrix_site_plan() {
    auto row = std::make_unique<serial::NodePlan>();
    row->expected_class = row_id;
    auto mat = std::make_unique<serial::NodePlan>();
    mat->expected_class = mat_id;
    mat->elem_plan = std::move(row);
    return mat;
  }

  // Serializes `m` and returns the image as a refcounted "frame": the
  // shared vector stands in for a pooled receive block.
  std::shared_ptr<std::vector<std::uint8_t>> encode_frame_bytes(
      om::ObjRef m, const serial::NodePlan& plan) {
    serial::SerialStats ws;
    serial::SerialWriter w(class_plans, ws, /*cycle_enabled=*/false);
    ByteBuffer buf;
    w.write(buf, plan, m);
    return std::make_shared<std::vector<std::uint8_t>>(std::move(buf).take());
  }

  om::TypeRegistry types;
  serial::ClassPlanRegistry class_plans;
  om::Heap heap;
  om::ClassId row_id = om::kNoClass;
  om::ClassId mat_id = om::kNoClass;
};

TEST_F(ZeroCopyRecvTest, MutationAfterDeliverDetachesWithoutTouchingFrame) {
  om::ObjRef m = make_matrix(2, 32, 0.0);  // 256-byte rows: both borrow
  auto plan = matrix_site_plan();
  auto frame = encode_frame_bytes(m, *plan);
  const std::vector<std::uint8_t> image = *frame;  // replay snapshot

  om::ObjRef copy = nullptr;
  {
    ByteBuffer in = ByteBuffer::view(frame->data(), frame->size(), frame);
    serial::SerialStats rs;
    serial::SerialReader r(class_plans, heap, rs, /*cycle_enabled=*/false);
    r.enable_borrow(/*min_bytes=*/64);
    copy = r.read(in, *plan);
    EXPECT_EQ(rs.recv_segments, 2u);
    EXPECT_EQ(rs.recv_bytes_borrowed, 2u * 32u * sizeof(double));
    EXPECT_EQ(rs.bytes_copied_rx, 0u);
  }
  ASSERT_NE(copy, nullptr);
  om::ObjRef r0 = copy->get_elem_ref(0);
  om::ObjRef r1 = copy->get_elem_ref(1);
  EXPECT_TRUE(r0->is_pinned_borrow());
  EXPECT_TRUE(r1->is_pinned_borrow());
  // test ref + two row pins (the reader's view released its pin already).
  EXPECT_EQ(frame.use_count(), 3);

  // Reads through get_elem (memcpy, alignment-free) do NOT detach...
  EXPECT_DOUBLE_EQ(r0->get_elem<double>(5), 5.0);
  EXPECT_TRUE(r0->is_pinned_borrow());

  // ...but the first mutable access copies on write: the object sees the
  // new value, the frame image — which a retransmit or reply-cache replay
  // would resend — is untouched, and the row's pin is gone.
  r0->elems<double>()[5] = -1.0;
  EXPECT_FALSE(r0->is_pinned_borrow());
  EXPECT_TRUE(r0->has_borrowed_storage());  // detached, not inlined
  EXPECT_DOUBLE_EQ(r0->get_elem<double>(5), -1.0);
  EXPECT_DOUBLE_EQ(r0->get_elem<double>(6), 6.0);  // rest kept
  EXPECT_EQ(image, *frame);
  EXPECT_EQ(frame.use_count(), 2);  // only row 1 still pins

  // Freeing the graph releases the last borrow: the frame can recycle.
  heap.free_graph(copy);
  EXPECT_EQ(frame.use_count(), 1);
  EXPECT_EQ(image, *frame);
  heap.free_graph(m);
  EXPECT_EQ(heap.stats().live_objects(), 0u);
}

TEST_F(ZeroCopyRecvTest, MisalignedBorrowRejectsTypedSpansButReadsViaGetElem) {
  // Borrowed elements sit at arbitrary wire-stream offsets; binding a
  // typed span there would be UB, so elems<T>() fails closed with a typed
  // error while get_elem/memcpy access works and the mutable span — which
  // detaches into aligned owned storage first — keeps working.
  auto buf = std::make_shared<std::vector<std::uint8_t>>(1 + 4 * sizeof(double));
  for (std::uint32_t i = 0; i < 4; ++i) {
    const double v = 10.0 + i;
    std::memcpy(buf->data() + 1 + i * sizeof(double), &v, sizeof(v));
  }
  om::ObjRef a = heap.alloc_array_borrowed(types.get(row_id), 4,
                                           buf->data() + 1, buf);
  EXPECT_TRUE(a->is_pinned_borrow());
  EXPECT_THROW(std::as_const(*a).elems<double>(), Error);
  EXPECT_DOUBLE_EQ(a->get_elem<double>(3), 13.0);
  EXPECT_TRUE(a->is_pinned_borrow());  // get_elem never detaches

  auto e = a->elems<double>();  // mutable: detach first, then aligned
  EXPECT_DOUBLE_EQ(e[0], 10.0);
  EXPECT_FALSE(a->is_pinned_borrow());
  EXPECT_EQ(buf.use_count(), 1);
  heap.free(a);
  EXPECT_EQ(heap.stats().live_objects(), 0u);
}

TEST_F(ZeroCopyRecvTest, ReuseRebindsCachedRowsAndReleasesPriorFrame) {
  om::ObjRef a = make_matrix(2, 32, 0.0);
  om::ObjRef b = make_matrix(2, 32, 5000.0);
  auto plan = matrix_site_plan();
  auto frame_a = encode_frame_bytes(a, *plan);
  auto frame_b = encode_frame_bytes(b, *plan);

  // First delivery: the graph borrows from frame A.
  serial::SerialStats rs1;
  om::ObjRef cached = nullptr;
  {
    ByteBuffer in = ByteBuffer::view(frame_a->data(), frame_a->size(), frame_a);
    serial::SerialReader r(class_plans, heap, rs1, /*cycle_enabled=*/false);
    r.enable_borrow(64);
    cached = r.read(in, *plan);
  }
  EXPECT_EQ(frame_a.use_count(), 3);  // two borrowed rows

  // Second delivery reuses the cached graph: the rows are not rewritten
  // byte by byte but *rebound* to spans in frame B, releasing frame A.
  serial::SerialStats rs2;
  om::ObjRef reused = nullptr;
  {
    ByteBuffer in = ByteBuffer::view(frame_b->data(), frame_b->size(), frame_b);
    serial::SerialReader r(class_plans, heap, rs2, /*cycle_enabled=*/false);
    r.enable_borrow(64);
    reused = r.read_reusing(in, *plan, cached);
  }
  EXPECT_EQ(reused, cached);  // same objects, new storage
  EXPECT_GT(rs2.objects_reused, 0u);
  EXPECT_EQ(rs2.objects_allocated, 0u);
  EXPECT_EQ(rs2.recv_segments, 2u);
  EXPECT_EQ(frame_a.use_count(), 1);  // prior frame free to recycle
  EXPECT_EQ(frame_b.use_count(), 3);
  EXPECT_DOUBLE_EQ(reused->get_elem_ref(1)->get_elem<double>(3), 5103.0);

  heap.free_graph(reused);
  EXPECT_EQ(frame_b.use_count(), 1);
  heap.free_graph(a);
  heap.free_graph(b);
  EXPECT_EQ(heap.stats().live_objects(), 0u);
}

TEST_F(ZeroCopyRecvTest, DetachedCachedRowRebindsBackToAPin) {
  // A cached row that already detached (mutation between calls) must still
  // accept the next delivery — and may borrow again from the new frame.
  om::ObjRef a = make_matrix(1, 32, 0.0);
  om::ObjRef b = make_matrix(1, 32, 7000.0);
  auto plan = matrix_site_plan();
  auto frame_a = encode_frame_bytes(a, *plan);
  auto frame_b = encode_frame_bytes(b, *plan);

  serial::SerialStats rs1;
  om::ObjRef cached = nullptr;
  {
    ByteBuffer in = ByteBuffer::view(frame_a->data(), frame_a->size(), frame_a);
    serial::SerialReader r(class_plans, heap, rs1, false);
    r.enable_borrow(64);
    cached = r.read(in, *plan);
  }
  cached->get_elem_ref(0)->elems<double>()[0] = 9.0;  // detach
  EXPECT_EQ(frame_a.use_count(), 1);

  serial::SerialStats rs2;
  {
    ByteBuffer in = ByteBuffer::view(frame_b->data(), frame_b->size(), frame_b);
    serial::SerialReader r(class_plans, heap, rs2, false);
    r.enable_borrow(64);
    EXPECT_EQ(r.read_reusing(in, *plan, cached), cached);
  }
  om::ObjRef row = cached->get_elem_ref(0);
  EXPECT_TRUE(row->is_pinned_borrow());
  EXPECT_EQ(frame_b.use_count(), 2);
  EXPECT_DOUBLE_EQ(row->get_elem<double>(0), 7000.0);

  heap.free_graph(cached);
  heap.free_graph(a);
  heap.free_graph(b);
  EXPECT_EQ(frame_b.use_count(), 1);
  EXPECT_EQ(heap.stats().live_objects(), 0u);
}

// ---- end to end: runtime shutdown with live borrows -------------------------

TEST(ZeroCopyRecvEndToEnd, StopWithLiveBorrowedGraphsLeaksNothing) {
  om::TypeRegistry types;
  serial::CostModel cost;
  cost.zero_copy_receive = true;
  net::Cluster cluster(2, types, cost);
  rmi::RmiSystem sys(cluster, types);
  const om::ClassId row_id = types.register_prim_array(om::TypeKind::Double);
  const om::ClassId mat_id = types.register_ref_array(row_id);

  int calls = 0;
  const auto mid = sys.define_method(
      "sink", [&](rmi::CallContext&, auto, std::span<const om::ObjRef> args) {
        ++calls;
        EXPECT_DOUBLE_EQ(args[0]->get_elem_ref(1)->get_elem<double>(2),
                         102.0);
        return rmi::HandlerResult{};
      });

  // A site-mode call site (non-HEAVY) with argument reuse: the callee
  // keeps the deserialized — borrowed — graph cached between calls, so
  // stop() runs with a pinned receive frame still live.
  rmi::CompiledCallSite cs;
  cs.method_id = mid;
  cs.plan = std::make_unique<serial::CallSitePlan>();
  cs.plan->name = "zcr.sink";
  {
    auto row = std::make_unique<serial::NodePlan>();
    row->expected_class = row_id;
    auto mat = std::make_unique<serial::NodePlan>();
    mat->expected_class = mat_id;
    mat->elem_plan = std::move(row);
    cs.plan->args.push_back(std::move(mat));
  }
  cs.plan->needs_cycle_table = false;
  cs.plan->reuse_args = true;
  const auto site = sys.add_callsite(std::move(cs));

  om::Heap& callee_heap = cluster.machine(1).heap();
  om::ObjRef target = callee_heap.alloc_array(row_id, 1);
  const rmi::RemoteRef ref = sys.export_object(1, target);
  const std::uint64_t callee_baseline = callee_heap.stats().live_objects();
  sys.start();

  om::Heap& h0 = cluster.machine(0).heap();
  om::ObjRef arg = h0.alloc_array(mat_id, 4);
  for (std::uint32_t r = 0; r < 4; ++r) {
    om::ObjRef row = h0.alloc_array(row_id, 16);  // 128-byte rows: borrow
    auto e = row->elems<double>();
    for (std::uint32_t c = 0; c < 16; ++c) e[c] = r * 100.0 + c;
    arg->set_elem_ref(r, row);
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(sys.invoke(0, ref, site, std::array{arg}), nullptr);
  }
  EXPECT_EQ(calls, 8);

  // Borrowing engaged and the cached argument graph is still pinning a
  // frame right now.
  const auto callee_stats = sys.stats(1);
  EXPECT_GT(callee_stats.serial.recv_segments, 0u);
  EXPECT_GT(callee_stats.serial.recv_bytes_borrowed, 0u);
  EXPECT_GT(cluster.stats().frame_pool_hits, 0u);  // prior frames recycled
  EXPECT_GT(callee_heap.stats().live_objects(), callee_baseline);

  // stop() drains the dispatchers and frees the reuse caches: every
  // borrowed object goes, every pin drops, nothing leaks.
  sys.stop();
  EXPECT_EQ(callee_heap.stats().live_objects(), callee_baseline);

  h0.free_graph(arg);
  callee_heap.free(target);
}

// ---- end to end: duplicates, dedup, and the reply cache ---------------------

TEST(ZeroCopyRecvEndToEnd, DuplicatedFramesNeverAliasRecycledBuffers) {
  // Duplicate delivery makes the receiver decode the same pooled frame
  // image twice (the dedup window rejects the copy; stale call frames are
  // answered from the reply cache).  With pooling on, the duplicate's view
  // must pin its own ref — if a recycled buffer were aliased, the decoded
  // duplicate would diverge and the app checksum with it.
  apps::ArrayBenchConfig cfg;
  cfg.rows = 16;
  cfg.cols = 16;
  cfg.iterations = 120;
  cfg.env.cost.zero_copy_receive = true;
  cfg.env.faults.seed = 0xD0B1E;
  cfg.env.faults.default_link = {.duplicate = 0.15, .reorder = 0.05};

  apps::ArrayBenchConfig clean = cfg;
  clean.env.cost.zero_copy_receive = false;
  clean.env.faults = {};

  const apps::RunResult faulty =
      apps::run_array_bench(codegen::OptLevel::SiteReuseCycle, cfg);
  const apps::RunResult reference =
      apps::run_array_bench(codegen::OptLevel::SiteReuseCycle, clean);

  EXPECT_GT(faulty.net.duplicated, 0u);
  EXPECT_GT(faulty.net.dedup_hits, 0u);  // duplicates really were decoded
  EXPECT_GT(faulty.total.serial.recv_segments, 0u);
  EXPECT_GT(faulty.net.frame_pool_hits, 0u);  // ...while the pool recycled
  EXPECT_DOUBLE_EQ(faulty.check, reference.check);
}

}  // namespace
}  // namespace rmiopt
