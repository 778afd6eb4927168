// The managed heap and runtime object representation.
//
// Each simulated machine owns one Heap.  Objects are allocated as a single
// block: a small header (class descriptor pointer + array length) followed
// by the payload.  Reference fields and reference array elements store
// `ObjRef` (an `Object*`) directly — the heap is per-machine, references
// never cross machines; cross-machine object transfer happens only through
// serialization, exactly as in RMI.
//
// There is no tracing collector: the paper's benchmarks measure *allocation
// volume* caused by deserialization ("new (MBytes)" in Tables 4/6/8), which
// the heap tracks, and the skeleton explicitly frees argument graphs after
// an invocation unless the reuse cache retains them (§3.3).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "objmodel/class_desc.hpp"
#include "objmodel/obj_set.hpp"
#include "support/error.hpp"

namespace rmiopt::om {

class Heap;

// Out-of-line storage for a primitive array whose elements live (or lived)
// in a pinned receive-frame buffer rather than inline after the header.
// While `pin` is held, `data` aliases the frame image and the frame cannot
// recycle; a copy-on-write detach (any mutable access) copies the elements
// into `owned`, repoints `data` at them and drops the pin.  `rebind` (the
// §3.3 reuse-cache integration) swaps `data`/`pin` to a *new* frame,
// releasing the previous one.
struct BorrowedStorage {
  const std::uint8_t* data = nullptr;
  std::vector<std::uint8_t> owned;
  std::shared_ptr<void> pin;
};

class alignas(16) Object {
 public:
  // Bit 31 of length_ marks indirect (borrowed-capable) storage; array
  // lengths are capped at 0x7fffffff by the wire decoder, so the bit is
  // free and sizeof(Object) — which feeds the allocation-volume tables —
  // does not change.
  static constexpr std::uint32_t kBorrowedBit = 0x80000000u;

  const ClassDescriptor& cls() const { return *cls_; }
  ClassId class_id() const { return cls_->id; }
  bool is_array() const { return cls_->is_array; }
  std::uint32_t length() const { return length_ & ~kBorrowedBit; }

  // True when the payload lives behind a BorrowedStorage control block
  // (possibly already detached to owned bytes).
  bool has_borrowed_storage() const { return (length_ & kBorrowedBit) != 0; }
  // True while the payload still aliases a pinned receive frame.
  bool is_pinned_borrow() const {
    return has_borrowed_storage() && borrowed_storage()->pin != nullptr;
  }
  BorrowedStorage* borrowed_storage() const {
    BorrowedStorage* s;
    std::memcpy(&s, reinterpret_cast<const std::uint8_t*>(this + 1),
                sizeof(s));
    return s;
  }

  // Mutable access is the copy-on-write escape hatch: a borrowed array
  // detaches to owned bytes before the pointer is handed out, so the
  // frame image can never be scribbled on (retransmits and replay-cache
  // copies stay byte-identical).
  std::uint8_t* payload() {
    if (has_borrowed_storage()) {
      detach();
      return borrowed_storage()->owned.data();
    }
    return reinterpret_cast<std::uint8_t*>(this + 1);
  }
  const std::uint8_t* payload() const {
    if (has_borrowed_storage()) return borrowed_storage()->data;
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }
  std::size_t payload_size() const;

  // ---- scalar fields -------------------------------------------------
  template <typename T>
  T get(const FieldDescriptor& f) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    std::memcpy(&v, payload() + f.offset, sizeof(T));
    return v;
  }
  template <typename T>
  void set(const FieldDescriptor& f, T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(payload() + f.offset, &v, sizeof(T));
  }

  Object* get_ref(const FieldDescriptor& f) const {
    RMIOPT_CHECK(f.kind == TypeKind::Ref, "field is not a reference");
    Object* v;
    std::memcpy(&v, payload() + f.offset, sizeof(v));
    return v;
  }
  void set_ref(const FieldDescriptor& f, Object* v) {
    RMIOPT_CHECK(f.kind == TypeKind::Ref, "field is not a reference");
    std::memcpy(payload() + f.offset, &v, sizeof(v));
  }

  // ---- array elements --------------------------------------------------
  // Spans require element alignment.  Inline payloads are 16-aligned by
  // construction and detached/owned storage by the allocator, but a
  // *pinned borrow* aliases wire bytes at an arbitrary stream offset —
  // binding a typed span there is UB, so it is rejected with a typed
  // error; use get_elem/set_elem (memcpy, alignment-free) instead, or
  // take the mutable span, which detaches first.
  template <typename T>
  std::span<T> elems() {
    std::uint8_t* p = payload();  // detaches a borrow: owned bytes align
    check_aligned(p, alignof(T));
    return {reinterpret_cast<T*>(p), length()};
  }
  template <typename T>
  std::span<const T> elems() const {
    const std::uint8_t* p = payload();
    check_aligned(p, alignof(T));
    return {reinterpret_cast<const T*>(p), length()};
  }

  // Alignment-free element access.  get_elem reads through the const
  // payload — it never detaches a pinned borrow; set_elem is a mutation
  // and detaches copy-on-write like any other.
  template <typename T>
  T get_elem(std::uint32_t i) const {
    static_assert(std::is_trivially_copyable_v<T>);
    RMIOPT_CHECK(i < length(), "array index out of range");
    T v;
    std::memcpy(&v, payload() + i * sizeof(T), sizeof(T));
    return v;
  }
  template <typename T>
  void set_elem(std::uint32_t i, T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    RMIOPT_CHECK(i < length(), "array index out of range");
    std::memcpy(payload() + i * sizeof(T), &v, sizeof(T));
  }

  Object* get_elem_ref(std::uint32_t i) const {
    RMIOPT_CHECK(i < length(), "array index out of range");
    Object* v;
    std::memcpy(&v, payload() + i * sizeof(Object*), sizeof(v));
    return v;
  }
  void set_elem_ref(std::uint32_t i, Object* v) {
    RMIOPT_CHECK(i < length(), "array index out of range");
    std::memcpy(payload() + i * sizeof(Object*), &v, sizeof(v));
  }

  std::string_view as_string_view() const {
    RMIOPT_CHECK(cls_->is_string, "object is not a string");
    return {reinterpret_cast<const char*>(payload()), length()};
  }

 private:
  friend class Heap;
  friend void rebind_borrowed(Object* obj, const std::uint8_t* data,
                              std::shared_ptr<void> pin);

  static void check_aligned(const void* p, std::size_t align) {
    RMIOPT_CHECK(reinterpret_cast<std::uintptr_t>(p) % align == 0,
                 "misaligned payload for a typed span: use get_elem/set_elem");
  }
  Object(const ClassDescriptor* cls, std::uint32_t length)
      : cls_(cls), length_(length) {}
  ~Object() = default;

  // Copies borrowed elements into the control block's owned vector and
  // drops the frame pin.  Idempotent; defined out of line (needs
  // payload_size).
  void detach();

  const ClassDescriptor* cls_;
  std::uint32_t length_;
};

using ObjRef = Object*;

struct HeapStats {
  std::atomic<std::uint64_t> objects_allocated{0};
  std::atomic<std::uint64_t> bytes_allocated{0};
  std::atomic<std::uint64_t> objects_freed{0};
  std::atomic<std::uint64_t> bytes_freed{0};

  std::uint64_t live_objects() const {
    return objects_allocated.load() - objects_freed.load();
  }
};

class Heap {
 public:
  explicit Heap(const TypeRegistry& types) : types_(types) {}
  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  // Allocates a non-array instance with zeroed payload.
  ObjRef alloc(const ClassDescriptor& cls);
  ObjRef alloc(ClassId id) { return alloc(types_.get(id)); }

  // Allocates an array instance (prim or ref elements) with zeroed payload.
  ObjRef alloc_array(const ClassDescriptor& cls, std::uint32_t length);
  ObjRef alloc_array(ClassId id, std::uint32_t length) {
    return alloc_array(types_.get(id), length);
  }

  // Allocates a primitive array whose elements *alias* [data, data +
  // length * elem_size) — typically a span into a pinned receive frame —
  // instead of being copied inline.  The object holds `pin` until it
  // detaches (copy-on-write on mutable access) or is freed.  Only the
  // header plus one control-block pointer are charged to the heap, which
  // is exactly the allocation-volume saving the zero-copy receive path
  // claims.
  ObjRef alloc_array_borrowed(const ClassDescriptor& cls, std::uint32_t length,
                              const std::uint8_t* data,
                              std::shared_ptr<void> pin);

  ObjRef alloc_string(std::string_view text);

  // Frees one object (not its referents).
  void free(ObjRef obj);
  // Frees the whole graph reachable from `obj`; cycle-safe.  Returns the
  // number of objects freed.
  std::size_t free_graph(ObjRef obj);

  const HeapStats& stats() const { return stats_; }
  const TypeRegistry& types() const { return types_; }

 private:
  ObjRef raw_alloc(const ClassDescriptor& cls, std::uint32_t length,
                   std::size_t payload);

  const TypeRegistry& types_;
  HeapStats stats_;
};

// Swaps a borrowed array's storage to a span in a *new* frame, releasing
// the pin on the previous one.  This is the §3.3 reuse-cache integration:
// `read_reusing` retargets the cached object instead of rewriting bytes.
// Any bytes a previous detach copied are discarded.
void rebind_borrowed(Object* obj, const std::uint8_t* data,
                     std::shared_ptr<void> pin);

// Structural deep equality over object graphs; cycle-safe (two graphs are
// equal if a bisimulation relating their nodes exists along the traversal).
bool deep_equals(const ObjRef a, const ObjRef b);

// Deep graph copy into `heap`; preserves sharing and cycles.  This is what
// RMI semantics require for *local* calls: parameters and return values of
// a same-machine RMI are cloned (paper §1).
ObjRef deep_clone(Heap& heap, const ObjRef obj);

// Number of objects in the graph reachable from `obj` (cycle-safe).
std::size_t graph_object_count(const ObjRef obj);

// Object count and total byte volume (headers + payloads) of a graph.
struct GraphExtent {
  std::size_t objects = 0;
  std::size_t bytes = 0;
};
GraphExtent graph_extent(const ObjRef obj);

// Adds every node reachable from `obj` to `out` (cycle-safe).  Nodes
// already in `out` are not walked again, so collecting several roots into
// one set visits shared substructure once.
void collect_graph(const ObjRef obj, ObjSet& out);

}  // namespace rmiopt::om
