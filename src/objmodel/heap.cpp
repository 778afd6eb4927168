#include "objmodel/heap.hpp"

#include <unordered_map>
#include <utility>
#include <vector>

#include "support/scratch.hpp"

namespace rmiopt::om {

std::size_t Object::payload_size() const {
  if (cls_->is_array) {
    return static_cast<std::size_t>(length()) * size_of(cls_->elem_kind);
  }
  return cls_->instance_size;
}

void Object::detach() {
  BorrowedStorage* s = borrowed_storage();
  if (s->pin == nullptr) return;  // already detached (or rebound to owned)
  s->owned.assign(s->data, s->data + payload_size());
  s->data = s->owned.data();
  s->pin.reset();
}

void rebind_borrowed(Object* obj, const std::uint8_t* data,
                     std::shared_ptr<void> pin) {
  RMIOPT_CHECK(obj->has_borrowed_storage(),
               "rebind_borrowed on inline-storage object");
  BorrowedStorage* s = obj->borrowed_storage();
  s->owned.clear();
  s->data = data;
  s->pin = std::move(pin);  // drops the previous frame's refcount
}

ObjRef Heap::raw_alloc(const ClassDescriptor& cls, std::uint32_t length,
                       std::size_t payload) {
  const std::size_t total = sizeof(Object) + payload;
  void* mem = ::operator new(total, std::align_val_t{16});
  std::memset(mem, 0, total);
  auto* obj = new (mem) Object(&cls, length);
  stats_.objects_allocated.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_allocated.fetch_add(total, std::memory_order_relaxed);
  return obj;
}

ObjRef Heap::alloc(const ClassDescriptor& cls) {
  RMIOPT_CHECK(!cls.is_array, "use alloc_array for array classes");
  return raw_alloc(cls, 0, cls.instance_size);
}

ObjRef Heap::alloc_array(const ClassDescriptor& cls, std::uint32_t length) {
  RMIOPT_CHECK(cls.is_array, "alloc_array requires an array class");
  return raw_alloc(cls, length,
                   static_cast<std::size_t>(length) * size_of(cls.elem_kind));
}

ObjRef Heap::alloc_array_borrowed(const ClassDescriptor& cls,
                                  std::uint32_t length,
                                  const std::uint8_t* data,
                                  std::shared_ptr<void> pin) {
  RMIOPT_CHECK(cls.is_array && cls.elem_kind != TypeKind::Ref,
               "alloc_array_borrowed requires a primitive array class");
  RMIOPT_CHECK((length & Object::kBorrowedBit) == 0, "array length overflow");
  // The payload area holds only the control-block pointer; the elements
  // stay in the pinned frame until a mutable access detaches them.
  ObjRef obj = raw_alloc(cls, length, sizeof(BorrowedStorage*));
  auto* storage = new BorrowedStorage;
  storage->data = data;
  storage->pin = std::move(pin);
  std::memcpy(reinterpret_cast<std::uint8_t*>(obj + 1), &storage,
              sizeof(storage));
  obj->length_ |= Object::kBorrowedBit;
  return obj;
}

ObjRef Heap::alloc_string(std::string_view text) {
  ObjRef s = alloc_array(types_.get(types_.string_class()),
                         static_cast<std::uint32_t>(text.size()));
  std::memcpy(s->payload(), text.data(), text.size());
  return s;
}

void Heap::free(ObjRef obj) {
  if (obj == nullptr) return;
  std::size_t total;
  if (obj->has_borrowed_storage()) {
    // Symmetric with alloc_array_borrowed: only the header + control-block
    // pointer were charged.  Deleting the control block drops the frame
    // pin (if still held), letting the pooled buffer recycle.
    delete obj->borrowed_storage();
    total = sizeof(Object) + sizeof(BorrowedStorage*);
  } else {
    total = sizeof(Object) + obj->payload_size();
  }
  obj->~Object();
  ::operator delete(static_cast<void*>(obj), std::align_val_t{16});
  stats_.objects_freed.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_freed.fetch_add(total, std::memory_order_relaxed);
}

namespace {

// Pushes all referents of `obj` onto `out`.
void collect_referents(const ObjRef obj, std::vector<ObjRef>& out) {
  const ClassDescriptor& cls = obj->cls();
  if (cls.is_array) {
    if (cls.elem_kind == TypeKind::Ref) {
      for (std::uint32_t i = 0; i < obj->length(); ++i) {
        if (ObjRef r = obj->get_elem_ref(i)) out.push_back(r);
      }
    }
    return;
  }
  for (const auto& f : cls.fields) {
    if (f.kind != TypeKind::Ref) continue;
    if (ObjRef r = obj->get_ref(f)) out.push_back(r);
  }
}

}  // namespace

std::size_t Heap::free_graph(ObjRef obj) {
  support::Scratch<ObjSet> graph;
  collect_graph(obj, *graph);
  graph->for_each([this](ObjRef o) { free(o); });
  return graph->size();
}

bool deep_equals(const ObjRef a, const ObjRef b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;

  std::unordered_map<ObjRef, ObjRef> matched;
  std::vector<std::pair<ObjRef, ObjRef>> stack{{a, b}};
  while (!stack.empty()) {
    auto [x, y] = stack.back();
    stack.pop_back();
    if (x == nullptr || y == nullptr) {
      if (x != y) return false;
      continue;
    }
    if (auto it = matched.find(x); it != matched.end()) {
      if (it->second != y) return false;
      continue;
    }
    matched.emplace(x, y);

    const ClassDescriptor& cx = x->cls();
    if (cx.id != y->class_id()) return false;
    if (cx.is_array) {
      if (x->length() != y->length()) return false;
      if (cx.elem_kind == TypeKind::Ref) {
        for (std::uint32_t i = 0; i < x->length(); ++i) {
          stack.emplace_back(x->get_elem_ref(i), y->get_elem_ref(i));
        }
      } else if (std::memcmp(std::as_const(*x).payload(),
                             std::as_const(*y).payload(),
                             x->payload_size()) != 0) {
        // const reads: comparing must never trigger a COW detach
        return false;
      }
      continue;
    }
    for (const auto& f : cx.fields) {
      if (f.kind == TypeKind::Ref) {
        stack.emplace_back(x->get_ref(f), y->get_ref(f));
      } else {
        const auto sz = size_of(f.kind);
        if (std::memcmp(std::as_const(*x).payload() + f.offset,
                        std::as_const(*y).payload() + f.offset, sz) != 0) {
          return false;
        }
      }
    }
  }
  return true;
}

ObjRef deep_clone(Heap& heap, const ObjRef obj) {
  if (obj == nullptr) return nullptr;

  std::unordered_map<ObjRef, ObjRef> copies;
  // First pass: allocate a shallow copy for every node (preserves cycles).
  std::vector<ObjRef> order;
  {
    support::Scratch<ObjSet> graph;
    collect_graph(obj, *graph);
    order.reserve(graph->size());
    graph->for_each([&](ObjRef o) { order.push_back(o); });
  }
  for (ObjRef o : order) {
    const ClassDescriptor& cls = o->cls();
    ObjRef copy = cls.is_array ? heap.alloc_array(cls, o->length())
                               : heap.alloc(cls);
    std::memcpy(copy->payload(), std::as_const(*o).payload(),
                o->payload_size());
    copies.emplace(o, copy);
  }
  // Second pass: rewrite reference slots to point at the copies.
  for (ObjRef o : order) {
    ObjRef copy = copies.at(o);
    const ClassDescriptor& cls = o->cls();
    if (cls.is_array) {
      if (cls.elem_kind == TypeKind::Ref) {
        for (std::uint32_t i = 0; i < o->length(); ++i) {
          ObjRef r = o->get_elem_ref(i);
          copy->set_elem_ref(i, r ? copies.at(r) : nullptr);
        }
      }
      continue;
    }
    for (const auto& f : cls.fields) {
      if (f.kind != TypeKind::Ref) continue;
      ObjRef r = o->get_ref(f);
      copy->set_ref(f, r ? copies.at(r) : nullptr);
    }
  }
  return copies.at(obj);
}

void collect_graph(const ObjRef obj, ObjSet& out) {
  if (obj == nullptr) return;
  support::Scratch<std::vector<ObjRef>> stack;
  stack->push_back(obj);
  while (!stack->empty()) {
    ObjRef o = stack->back();
    stack->pop_back();
    if (out.insert(o)) collect_referents(o, *stack);
  }
}

std::size_t graph_object_count(const ObjRef obj) {
  support::Scratch<ObjSet> graph;
  collect_graph(obj, *graph);
  return graph->size();
}

GraphExtent graph_extent(const ObjRef obj) {
  support::Scratch<ObjSet> graph;
  collect_graph(obj, *graph);
  GraphExtent ext;
  ext.objects = graph->size();
  graph->for_each(
      [&](ObjRef o) { ext.bytes += sizeof(Object) + o->payload_size(); });
  return ext;
}

}  // namespace rmiopt::om
