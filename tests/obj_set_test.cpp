// Tests for om::ObjSet, the flat open-addressing set behind every object
// graph walk: membership with tombstone erase, growth and in-place rebuilds
// past tombstones, capacity-keeping clear(), and a seeded differential run
// against std::unordered_set.
#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "objmodel/heap.hpp"
#include "objmodel/obj_set.hpp"
#include "support/rng.hpp"

namespace rmiopt::om {
namespace {

class ObjSetTest : public ::testing::Test {
 protected:
  ObjSetTest() : heap(types) {
    cls = types.define_class("A", {{"x", TypeKind::Int}});
  }
  ~ObjSetTest() override {
    for (ObjRef o : pool) heap.free(o);
  }

  // n distinct live objects (the set never dereferences them, but real
  // addresses give realistic hash spreads).
  const std::vector<ObjRef>& objects(std::size_t n) {
    while (pool.size() < n) pool.push_back(heap.alloc(cls));
    return pool;
  }

  std::vector<ObjRef> members(const ObjSet& s) {
    std::vector<ObjRef> out;
    s.for_each([&](ObjRef o) { out.push_back(o); });
    return out;
  }

  TypeRegistry types;
  Heap heap;
  ClassId cls = kNoClass;
  std::vector<ObjRef> pool;
};

TEST_F(ObjSetTest, InsertContainsErase) {
  const auto& o = objects(3);
  ObjSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(o[0]));
  EXPECT_FALSE(s.erase(o[0]));  // erase from a never-used set
  EXPECT_FALSE(s.contains(nullptr));

  EXPECT_TRUE(s.insert(o[0]));
  EXPECT_TRUE(s.insert(o[1]));
  EXPECT_FALSE(s.insert(o[0]));  // already a member
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(o[0]));
  EXPECT_TRUE(s.contains(o[1]));
  EXPECT_FALSE(s.contains(o[2]));

  EXPECT_TRUE(s.erase(o[0]));
  EXPECT_FALSE(s.erase(o[0]));  // now a tombstone, not a member
  EXPECT_FALSE(s.contains(o[0]));
  EXPECT_TRUE(s.contains(o[1]));
  EXPECT_EQ(s.size(), 1u);

  EXPECT_TRUE(s.insert(o[0]));  // reinserting after erase works
  EXPECT_EQ(s.size(), 2u);
}

TEST_F(ObjSetTest, RejectsNull) {
  ObjSet s;
  EXPECT_ANY_THROW(s.insert(nullptr));
}

TEST_F(ObjSetTest, TombstonesKeepProbeChainsIntact) {
  const auto& o = objects(500);
  ObjSet s;
  for (ObjRef x : o) s.insert(x);
  // Erase every other member: the survivors' probe paths now cross
  // tombstones, which must not end a lookup early.
  for (std::size_t i = 0; i < o.size(); i += 2) EXPECT_TRUE(s.erase(o[i]));
  for (std::size_t i = 0; i < o.size(); ++i) {
    EXPECT_EQ(s.contains(o[i]), i % 2 == 1) << i;
  }
  EXPECT_EQ(s.size(), 250u);
  // A reinsert must not duplicate a survivor found past a tombstone.
  for (std::size_t i = 1; i < o.size(); i += 2) EXPECT_FALSE(s.insert(o[i]));
  EXPECT_EQ(s.size(), 250u);
  EXPECT_EQ(members(s).size(), 250u);
}

TEST_F(ObjSetTest, GrowsPastTombstonesWithoutBloating) {
  const auto& o = objects(4096);
  ObjSet s;
  // Growth: 4096 members force several doublings.
  for (ObjRef x : o) EXPECT_TRUE(s.insert(x));
  EXPECT_EQ(s.size(), 4096u);
  for (ObjRef x : o) EXPECT_TRUE(s.contains(x));
  EXPECT_GE(s.capacity() * 3, s.size() * 4);

  // Churn: a working set of 16 members, each insert paired with an erase
  // of an older one.  Tombstones pile up and force rebuilds, but a set that
  // is mostly tombstones rebuilds at its size instead of doubling.
  ObjSet churn;
  for (std::size_t i = 0; i < 16; ++i) churn.insert(o[i]);
  const std::size_t settled = churn.capacity();
  for (std::size_t i = 16; i < o.size(); ++i) {
    ASSERT_TRUE(churn.insert(o[i]));
    ASSERT_TRUE(churn.erase(o[i - 16]));
  }
  EXPECT_EQ(churn.size(), 16u);
  EXPECT_LE(churn.capacity(), settled * 2);
  for (std::size_t i = o.size() - 16; i < o.size(); ++i) {
    EXPECT_TRUE(churn.contains(o[i]));
  }
  EXPECT_FALSE(churn.contains(o[0]));
}

TEST_F(ObjSetTest, ClearKeepsCapacityForReuse) {
  const auto& o = objects(100);
  ObjSet s;
  for (ObjRef x : o) s.insert(x);
  s.erase(o[0]);  // leave a tombstone for clear() to wipe too
  const std::size_t cap = s.capacity();
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.capacity(), cap);
  for (ObjRef x : o) EXPECT_FALSE(s.contains(x));
  EXPECT_TRUE(members(s).empty());
  // Refilling to the same size fits in the kept slots.
  for (ObjRef x : o) EXPECT_TRUE(s.insert(x));
  EXPECT_EQ(s.capacity(), cap);
  EXPECT_EQ(s.size(), 100u);
}

TEST_F(ObjSetTest, ForEachVisitsEachMemberOnce) {
  const auto& o = objects(64);
  ObjSet s;
  for (ObjRef x : o) s.insert(x);
  for (std::size_t i = 0; i < 64; i += 3) s.erase(o[i]);
  std::unordered_set<ObjRef> seen;
  s.for_each([&](ObjRef x) { EXPECT_TRUE(seen.insert(x).second); });
  EXPECT_EQ(seen.size(), s.size());
  for (ObjRef x : seen) EXPECT_TRUE(s.contains(x));
}

// 10k random insert / erase / contains / (rare) clear operations, each
// result and the size checked against std::unordered_set.
TEST_F(ObjSetTest, DifferentialAgainstUnorderedSet) {
  const auto& o = objects(300);
  SplitMix64 rng(12);
  ObjSet s;
  std::unordered_set<ObjRef> ref;
  for (int step = 0; step < 10000; ++step) {
    ObjRef x = o[rng.next_below(o.size())];
    const std::uint64_t op = rng.next_below(100);
    if (op < 45) {
      ASSERT_EQ(s.insert(x), ref.insert(x).second) << step;
    } else if (op < 80) {
      ASSERT_EQ(s.erase(x), ref.erase(x) == 1) << step;
    } else if (op < 99) {
      ASSERT_EQ(s.contains(x), ref.contains(x)) << step;
    } else {
      s.clear();
      ref.clear();
    }
    ASSERT_EQ(s.size(), ref.size()) << step;
  }
  const std::vector<ObjRef> got = members(s);
  EXPECT_EQ(std::unordered_set<ObjRef>(got.begin(), got.end()), ref);
}

TEST_F(ObjSetTest, CollectGraphSkipsNodesAlreadyCollected) {
  // a -> b -> c, d -> b: collecting a then d walks b's tail once.
  const ClassId node =
      types.define_class("N", {{"next", TypeKind::Ref}});
  const ClassDescriptor& n = types.get(node);
  ObjRef a = heap.alloc(n), b = heap.alloc(n), c = heap.alloc(n),
         d = heap.alloc(n);
  a->set_ref(n.fields[0], b);
  b->set_ref(n.fields[0], c);
  d->set_ref(n.fields[0], b);
  ObjSet s;
  collect_graph(a, s);
  collect_graph(d, s);
  collect_graph(nullptr, s);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(graph_object_count(d), 3u);
  EXPECT_EQ(heap.free_graph(a), 3u);
  heap.free(d);
}

}  // namespace
}  // namespace rmiopt::om
