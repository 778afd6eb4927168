// ObjSet: a flat open-addressing set of object addresses.
//
// Every per-RMI object-graph walk (freeing an argument graph, measuring a
// cloned graph, the §3.3 reuse deserializer's bookkeeping) needs a visited
// set.  A node-based std::unordered_set pays one heap allocation per insert
// plus rehashes; for a 100-node list that bookkeeping cost more than the
// allocations reuse was meant to save.  ObjSet stores the pointers inline:
// linear probing with Fibonacci hashing (mix_pointer, as in
// serial::CycleTable), tombstone erase, and a clear() that keeps the slot
// array, so a recycled set (support::Scratch) allocates nothing once it has
// grown to its working size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/hash.hpp"

namespace rmiopt::om {

class Object;

class ObjSet {
 public:
  // Adds `obj` (non-null); true when it was not already a member.
  bool insert(Object* obj);
  bool contains(const Object* obj) const;
  // Removes `obj`, leaving a tombstone on its probe path; true when it was
  // a member.
  bool erase(const Object* obj);
  // Empties the set but keeps its capacity.
  void clear();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  // Calls f(Object*) once per member, in unspecified order.  `f` must not
  // modify the set.
  template <typename F>
  void for_each(F&& f) const {
    if (size_ == 0) return;
    for (Object* s : slots_) {
      if (live(s)) f(s);
    }
  }

 private:
  // Objects are 16-byte aligned, so address 1 never names one.
  static Object* tombstone() {
    return reinterpret_cast<Object*>(std::uintptr_t{1});
  }
  static bool live(const Object* s) { return s != nullptr && s != tombstone(); }
  std::size_t home(const Object* obj) const {
    return static_cast<std::size_t>(rmiopt::mix_pointer(obj) >> shift_);
  }
  // Index of `obj`'s slot, or slots_.size() when absent.
  std::size_t find(const Object* obj) const;
  void rehash(std::size_t capacity);

  std::vector<Object*> slots_;  // nullptr = never used, tombstone() = erased
  std::size_t size_ = 0;        // members
  std::size_t used_ = 0;        // members + tombstones
  unsigned shift_ = 64;         // 64 - log2(capacity)
};

}  // namespace rmiopt::om
