#include "serial/reader.hpp"

#include "wire/protocol.hpp"

namespace rmiopt::serial {

SerialReader::SerialReader(const ClassPlanRegistry& class_plans,
                           om::Heap& heap, SerialStats& stats,
                           bool cycle_enabled, trace::PassTrace pt)
    : class_plans_(class_plans),
      types_(class_plans.types()),
      heap_(heap),
      stats_(stats),
      cycle_enabled_(cycle_enabled),
      pt_(pt) {
  if (pt_.recorder != nullptr) real_start_ = std::chrono::steady_clock::now();
}

SerialReader::~SerialReader() {
  if (pt_.recorder == nullptr || pt_.cost == nullptr) return;
  trace::Event e;
  e.kind = pt_.kind;
  e.machine = pt_.machine;
  e.callsite = pt_.callsite;
  e.seq = pt_.seq;
  e.start_ns = pt_.virtual_start_ns;
  e.dur_ns = stats_.cpu_cost(*pt_.cost).as_nanos();
  e.bytes = stats_.bytes_copied_rx;
  e.reuse_hits = stats_.objects_reused;
  e.cycle_lookups = stats_.cycle_lookups;
  e.real_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - real_start_)
                  .count();
  pt_.recorder->record(e);
}

om::ObjRef SerialReader::fresh_alloc(const om::ClassDescriptor& cls,
                                     std::uint32_t length) {
  om::ObjRef obj =
      cls.is_array ? heap_.alloc_array(cls, length) : heap_.alloc(cls);
  ++stats_.objects_allocated;
  stats_.bytes_allocated += sizeof(om::Object) + obj->payload_size();
  book_->fresh.push_back(obj);
  return obj;
}

om::ObjRef SerialReader::borrowed_alloc(const om::ClassDescriptor& cls,
                                        std::uint32_t length, ByteBuffer& in) {
  const std::size_t psize =
      static_cast<std::size_t>(length) * om::size_of(cls.elem_kind);
  om::ObjRef obj =
      heap_.alloc_array_borrowed(cls, length, in.view_bytes(psize), in.pin());
  ++stats_.objects_allocated;
  // Real allocation volume: header + control-block pointer.  The element
  // bytes stay in the pinned frame, which is the "new (MBytes)" saving the
  // zero-copy receive path delivers.
  stats_.bytes_allocated += sizeof(om::Object) + sizeof(om::BorrowedStorage*);
  ++stats_.recv_segments;
  stats_.recv_bytes_borrowed += psize;
  book_->fresh.push_back(obj);
  return obj;
}

void SerialReader::adopt_cache_roots(std::span<const om::ObjRef> roots) {
  for (om::ObjRef root : roots) om::collect_graph(root, book_->adopted);
}

bool SerialReader::consume(om::ObjRef cached) {
  if (!book_->adopted.erase(cached)) return false;
  book_->consumed.push_back(cached);
  ++stats_.objects_reused;
  return true;
}

void SerialReader::release_orphans() {
  book_->adopted.for_each([&](om::ObjRef o) {
    heap_.free(o);
    ++stats_.objects_freed;
  });
  book_->adopted.clear();
}

void SerialReader::abandon_pass() {
  Bookkeeping& b = *book_;
  for (om::ObjRef o : b.fresh) heap_.free(o);
  for (om::ObjRef o : b.consumed) heap_.free(o);
  b.adopted.for_each([&](om::ObjRef o) { heap_.free(o); });
  stats_.objects_freed += b.fresh.size() + b.consumed.size() + b.adopted.size();
  b.clear();
}

void SerialReader::note_handle(om::ObjRef obj, bool node_cycle_check) {
  // Mirrors the writer: a handle was assigned exactly where a probe ran.
  if (cycle_enabled_ && node_cycle_check) book_->handles.push_back(obj);
}

om::ObjRef SerialReader::read(ByteBuffer& in, const NodePlan& plan) {
  return read_adopted(in, plan, nullptr);
}

om::ObjRef SerialReader::read_adopted(ByteBuffer& in, const NodePlan& plan,
                                      om::ObjRef cached) {
  try {
    return read_node(in, plan, cached);
  } catch (...) {
    abandon_pass();
    throw;
  }
}

om::ObjRef SerialReader::read_reusing(ByteBuffer& in, const NodePlan& plan,
                                      om::ObjRef cached) {
  RMIOPT_CHECK(book_->adopted.empty(),
               "read_reusing inside an open adopt_cache_roots pass");
  adopt_cache_roots({&cached, 1});
  om::ObjRef value = read_adopted(in, plan, cached);
  release_orphans();
  return value;
}

om::ObjRef SerialReader::read_node(ByteBuffer& in, const NodePlan& plan,
                                   om::ObjRef cached) {
  if (plan.recurse_to != nullptr) {
    return read_node(in, *plan.recurse_to, cached);
  }
  const auto tag = static_cast<wire::ObjTag>(in.get_u8());
  if (tag == wire::kTagNull) return nullptr;
  if (tag == wire::kTagHandle) {
    RMIOPT_CHECK(cycle_enabled_, "handle tag without cycle protocol");
    const std::uint64_t idx = in.get_varint();
    RMIOPT_CHECK(idx < book_->handles.size(),
                 "dangling back-reference handle");
    return book_->handles[idx];
  }
  RMIOPT_CHECK(tag == wire::kTagInline, "corrupt object tag");

  if (plan.dynamic_dispatch) {
    const auto runtime_class = static_cast<om::ClassId>(in.get_varint());
    ++stats_.type_decodes;  // hash the descriptor to vtable pointers (§4)
    const om::ClassDescriptor& cls = types_.get(runtime_class);
    return read_body(in, class_plans_.plan_for(runtime_class), cls,
                     plan.cycle_check, cached);
  }

  if (plan.type_info == TypeInfoMode::CompactId) {
    const auto wire_class = static_cast<om::ClassId>(in.get_varint());
    ++stats_.type_decodes;
    RMIOPT_CHECK(wire_class == plan.expected_class,
                 "wire type does not match call-site plan");
  }
  return read_body(in, plan, types_.get(plan.expected_class),
                   plan.cycle_check, cached);
}

namespace {

// Protocol hardening: an array length (possibly corrupted in transit) must
// be consistent with the bytes actually present — a primitive array's
// payload follows inline, and every reference element needs at least its
// tag byte.  Rejecting early prevents attacker/corruption-controlled
// allocation sizes.
void check_array_length(const ByteBuffer& in, const om::ClassDescriptor& cls,
                        std::uint64_t length) {
  const std::size_t min_bytes =
      cls.elem_kind == om::TypeKind::Ref
          ? length
          : length * om::size_of(cls.elem_kind);
  RMIOPT_CHECK(length <= 0x7fffffffull && min_bytes <= in.remaining(),
               "array length exceeds message size (corrupt stream)");
}

}  // namespace

om::ObjRef SerialReader::read_body(ByteBuffer& in, const NodePlan& body,
                                   const om::ClassDescriptor& cls,
                                   bool node_cycle_check, om::ObjRef cached) {
  if (cls.is_array) {
    const std::uint64_t wire_length = in.get_varint();
    check_array_length(in, cls, wire_length);
    const auto length = static_cast<std::uint32_t>(wire_length);
    const bool prim = cls.elem_kind != om::TypeKind::Ref;
    const std::size_t psize =
        prim ? static_cast<std::size_t>(length) * om::size_of(cls.elem_kind)
             : 0;
    // Borrow gate: armed by the runtime (non-HEAVY site, knob on), input
    // backed by a pinned frame, and the row big enough that a span beats
    // the memcpy (same crossover logic as the send-side gather).
    const bool borrowable =
        prim && borrow_min_ != 0 && psize >= borrow_min_ && in.pin() != nullptr;
    om::ObjRef obj;
    // Figure 13: reuse the cached array iff type and size match; otherwise
    // allocate a fresh one ("if an array size is mismatched ... a new
    // array of the correct size is allocated").
    if (cached != nullptr && cached->class_id() == cls.id &&
        cached->length() == length && consume(cached)) {
      obj = cached;
      note_handle(obj, node_cycle_check);
      if (prim) {
        if (borrowable && obj->has_borrowed_storage()) {
          // §3.3 × zero copy: retarget the cached array at the new frame's
          // span instead of rewriting its bytes.  The swap releases the
          // pin on whichever frame the slot borrowed last time.
          om::rebind_borrowed(obj, in.view_bytes(psize), in.pin());
          ++stats_.recv_segments;
          stats_.recv_bytes_borrowed += psize;
        } else {
          in.get_bytes(obj->payload(), psize);
          stats_.bytes_copied_rx += psize;
        }
        return obj;
      }
    } else {
      if (prim) {
        if (borrowable) {
          obj = borrowed_alloc(cls, length, in);
        } else {
          obj = fresh_alloc(cls, length);
          in.get_bytes(obj->payload(), psize);
          stats_.bytes_copied_rx += psize;
        }
        note_handle(obj, node_cycle_check);
        return obj;
      }
      obj = fresh_alloc(cls, length);
      cached = nullptr;  // no reusable counterpart, so its children have none
      note_handle(obj, node_cycle_check);
    }
    const bool reused_here = cached != nullptr;  // after the branch above
    RMIOPT_CHECK(body.elem_plan != nullptr, "ref array plan lacks element plan");
    for (std::uint32_t i = 0; i < length; ++i) {
      om::ObjRef cached_elem = reused_here ? obj->get_elem_ref(i) : nullptr;
      obj->set_elem_ref(i, read_node(in, *body.elem_plan, cached_elem));
    }
    return obj;
  }

  om::ObjRef obj;
  if (cached != nullptr && cached->class_id() == cls.id && consume(cached)) {
    obj = cached;
  } else {
    obj = fresh_alloc(cls, 0);
    cached = nullptr;
  }
  note_handle(obj, node_cycle_check);
  const bool reused_here = cached != nullptr;
  for (const auto& fa : body.fields) {
    const om::FieldDescriptor& f = *fa.field;
    if (f.kind == om::TypeKind::Ref) {
      RMIOPT_CHECK(fa.ref_plan != nullptr, "ref field plan missing");
      om::ObjRef cached_ref = reused_here ? obj->get_ref(f) : nullptr;
      obj->set_ref(f, read_node(in, *fa.ref_plan, cached_ref));
    } else {
      in.get_bytes(obj->payload() + f.offset, size_of(f.kind));
      ++stats_.fields_marshaled;
    }
  }
  return obj;
}

om::ObjRef SerialReader::read_introspective(ByteBuffer& in) {
  try {
    return read_introspective_node(in);
  } catch (...) {
    abandon_pass();
    throw;
  }
}

om::ObjRef SerialReader::read_introspective_node(ByteBuffer& in) {
  const auto tag = static_cast<wire::ObjTag>(in.get_u8());
  if (tag == wire::kTagNull) return nullptr;
  if (tag == wire::kTagHandle) {
    const std::uint64_t idx = in.get_varint();
    RMIOPT_CHECK(idx < book_->handles.size(),
                 "dangling back-reference handle");
    return book_->handles[idx];
  }
  RMIOPT_CHECK(tag == wire::kTagInline, "corrupt object tag");

  const std::string name = in.get_string();
  ++stats_.type_decodes;
  const om::ClassDescriptor* cls = types_.find_by_name(name);
  RMIOPT_CHECK(cls != nullptr, "unknown class on wire: " + name);

  if (cls->is_array) {
    const std::uint64_t wire_length = in.get_varint();
    check_array_length(in, *cls, wire_length);
    const auto length = static_cast<std::uint32_t>(wire_length);
    om::ObjRef obj = fresh_alloc(*cls, length);
    book_->handles.push_back(obj);
    if (cls->elem_kind == om::TypeKind::Ref) {
      for (std::uint32_t i = 0; i < length; ++i) {
        obj->set_elem_ref(i, read_introspective_node(in));
      }
    } else {
      in.get_bytes(obj->payload(), obj->payload_size());
      stats_.bytes_copied_rx += obj->payload_size();
    }
    return obj;
  }
  om::ObjRef obj = fresh_alloc(*cls, 0);
  book_->handles.push_back(obj);
  for (const auto& f : cls->fields) {
    ++stats_.introspected_fields;
    if (f.kind == om::TypeKind::Ref) {
      obj->set_ref(f, read_introspective_node(in));
    } else {
      in.get_bytes(obj->payload() + f.offset, size_of(f.kind));
      ++stats_.fields_marshaled;
    }
  }
  return obj;
}

}  // namespace rmiopt::serial
